package harness

import (
	"fmt"
	"io"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

// StencilBenchConfig parameterizes StencilBench.
type StencilBenchConfig struct {
	// Problems are the structured families to measure (default both
	// stencil sets).
	Problems []string
	// Size is the grid length (default 30, the paper's 27,000 rows).
	Size int
	// Reps is the number of operator applications per timing (default 20).
	Reps int
}

// DefaultStencilBench mirrors the paper's stencil problems at full scale.
func DefaultStencilBench() StencilBenchConfig {
	return StencilBenchConfig{
		Problems: []string{Problem7pt, Problem27pt},
		Size:     30,
		Reps:     20,
	}
}

// StencilBench compares the assembled-CSR and matrix-free-stencil forms
// of the structured Laplacians: fine-level SpMV throughput (the kernel
// the fine grid spends its time in) and resident hierarchy footprint
// under the three storage policies (float64, float32 coarse,
// matrix-free fine). The rows-per-GB column is the capacity headline:
// how many unknowns one GB of hierarchy storage serves.
func StencilBench(w io.Writer, cfg StencilBenchConfig) error {
	if len(cfg.Problems) == 0 {
		cfg.Problems = []string{Problem7pt, Problem27pt}
	}
	if cfg.Size < 2 {
		cfg.Size = 30
	}
	if cfg.Reps < 1 {
		cfg.Reps = 20
	}
	for _, p := range cfg.Problems {
		a, err := BuildProblem(p, cfg.Size)
		if err != nil {
			return err
		}
		st, ok := BuildProblemOperator(p, cfg.Size)
		if !ok {
			return fmt.Errorf("harness: %s has no stencil form", p)
		}
		n := a.Rows
		x := grid.RandomRHS(n, 7)
		y := make([]float64, n)

		// Fine-level SpMV: CSR streams vals+colidx+rowptr plus both
		// vectors; the stencil streams only the vectors.
		csrBytes := int64(a.NNZ()*16 + (n+1)*8 + n*16)
		stBytes := int64(n * 16)
		a.MatVecPar(y, x) // warm
		t0 := time.Now()
		for r := 0; r < cfg.Reps; r++ {
			a.MatVecPar(y, x)
		}
		csrSec := time.Since(t0).Seconds() / float64(cfg.Reps)
		st.Apply(y, x) // warm
		t0 = time.Now()
		for r := 0; r < cfg.Reps; r++ {
			st.Apply(y, x)
		}
		stSec := time.Since(t0).Seconds() / float64(cfg.Reps)

		fmt.Fprintf(w, "# %s, grid %d^3 = %d rows, %d nonzeros\n", p, cfg.Size, n, a.NNZ())
		fmt.Fprintf(w, "%-24s %12s %12s %10s\n", "fine-level SpMV", "Mrow/s", "GB/s", "speedup")
		fmt.Fprintf(w, "%-24s %12.1f %12.2f %10s\n", "csr (parallel)",
			float64(n)/csrSec/1e6, float64(csrBytes)/csrSec/1e9, "1.00x")
		fmt.Fprintf(w, "%-24s %12.1f %12.2f %9.2fx\n", "stencil (matrix-free)",
			float64(n)/stSec/1e6, float64(stBytes)/stSec/1e9, csrSec/stSec)

		// Hierarchy footprint under the three storage policies.
		smo := smoother.Config{Kind: smoother.WJacobi, Omega: DefaultOmega(p), Blocks: 1}
		opt := amg.DefaultOptions()
		opt.AggressiveLevels = 1
		builds := []struct {
			label string
			build func() (*engine.Engine, error)
		}{
			{"float64 (baseline)", func() (*engine.Engine, error) { return engine.New(a, opt, smo) }},
			{"float32 coarse", func() (*engine.Engine, error) {
				o := opt
				o.CoarsePrecision = op.CoarseFloat32
				return engine.New(a, o, smo)
			}},
			{"matrix-free fine", func() (*engine.Engine, error) { return engine.NewOperator(st, opt, smo) }},
		}
		fmt.Fprintf(w, "%-24s %12s %12s %10s\n", "hierarchy storage", "bytes", "rows/GB", "vs f64")
		var base int
		for _, bd := range builds {
			s, err := bd.build()
			if err != nil {
				return err
			}
			bytes := s.HierarchyBytes()
			if bd.label == "float64 (baseline)" {
				base = bytes
			}
			fmt.Fprintf(w, "%-24s %12d %12.0f %9.1f%%\n", bd.label,
				bytes, float64(n)/(float64(bytes)/1e9), 100*float64(bytes)/float64(base))
		}
		fmt.Fprintln(w)
	}
	return nil
}
