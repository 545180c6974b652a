package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// SparsifyBenchConfig parameterizes the coarse-stencil-growth table: the
// nnz/row of every hierarchy level before and after strength-aware
// sparsification, the iteration-count delta and the cycle-time delta,
// per paper problem family.
type SparsifyBenchConfig struct {
	// Problems are the families to measure (default all four).
	Problems []string
	// Size is the mesh parameter (default 16; elasticity uses Size/3
	// rounded up to at least 4, matching the setup benchmarks' scaling).
	Size int
	// Theta is the sparsification drop threshold (default 0.25, the setup
	// strength threshold).
	Theta float64
	// Mode is the compensation mode flag spelling (default "lump").
	Mode string
	// Tau is the relative-residual target for the iteration counts
	// (default 1e-6: reachable by the V(1,1) ω-Jacobi cycle on all four
	// problem families within MaxCycles, so the golden-vs-sparsified
	// iteration delta is measured, not capped).
	Tau float64
	// MaxCycles bounds the iteration count measurement (default 800;
	// elasticity needs ~750 V(1,1) ω-Jacobi cycles to reach 1e-6 under
	// the shared aggressive-coarsening protocol).
	MaxCycles int
	// Reps is the number of timed V-cycles per measurement (default 20).
	Reps int
}

// DefaultSparsifyBench covers the paper's four problem families.
func DefaultSparsifyBench() SparsifyBenchConfig {
	return SparsifyBenchConfig{
		Problems:  AllProblems(),
		Size:      16,
		Theta:     0.25,
		Mode:      "lump",
		Tau:       1e-6,
		MaxCycles: 800,
		Reps:      20,
	}
}

// SparsifyLevelRow is one hierarchy level of the coarse-stencil-growth
// table.
type SparsifyLevelRow struct {
	Level     int  `json:"level"`
	Rows      int  `json:"rows"`
	NNZBefore int  `json:"nnz_before"`
	NNZAfter  int  `json:"nnz_after"`
	Skipped   bool `json:"skipped,omitempty"`
	Reverted  bool `json:"reverted,omitempty"`
}

// SparsifyProblemReport is the per-problem record of BENCH_sparsify.json.
type SparsifyProblemReport struct {
	Problem string `json:"problem"`
	Rows    int    `json:"rows"`
	// Coarse nnz totals over levels 1..L-1.
	CoarseNNZBefore int     `json:"coarse_nnz_before"`
	CoarseNNZAfter  int     `json:"coarse_nnz_after"`
	Reduction       float64 `json:"reduction"`
	// Iterations of the synchronous V(1,1) multiplicative cycle to Tau.
	ItersGolden     int `json:"iters_golden"`
	ItersSparsified int `json:"iters_sparsified"`
	// Mean wall time of one V-cycle.
	CycleNSGolden     int64 `json:"cycle_ns_golden"`
	CycleNSSparsified int64 `json:"cycle_ns_sparsified"`
	// FallbackLevels counts levels the convergence guard reverted.
	FallbackLevels int                `json:"fallback_levels"`
	Levels         []SparsifyLevelRow `json:"levels"`
}

// SparsifyReport is the BENCH_sparsify.json schema, consumed by
// benchguard -sparsify.
type SparsifyReport struct {
	Theta float64 `json:"theta"`
	Mode  string  `json:"mode"`
	Size  int     `json:"size"`
	// Totals across problems.
	TotalCoarseNNZBefore int     `json:"total_coarse_nnz_before"`
	TotalCoarseNNZAfter  int     `json:"total_coarse_nnz_after"`
	TotalReduction       float64 `json:"total_reduction"`
	// KernelAllocsPerOp is the steady-state heap allocations of one
	// SparsifyStrengthInto call on a warm destination (the 0 allocs/op
	// contract, measured with testing.AllocsPerRun).
	KernelAllocsPerOp float64                 `json:"kernel_allocs_per_op"`
	Problems          []SparsifyProblemReport `json:"problems"`
}

// sparsifyProblemSize mirrors the setup benchmarks' scaling: elasticity
// DOFs grow 3x faster, so its mesh stays smaller.
func sparsifyProblemSize(problem string, size int) int {
	if problem == ProblemElasticity {
		s := size / 3
		if s < 4 {
			s = 4
		}
		return s
	}
	return size
}

// timeCycles measures the mean wall time of one multiplicative V-cycle.
func timeCycles(s *engine.Engine, b []float64, reps int) int64 {
	x := make([]float64, len(b))
	w := s.AcquireWorkspace()
	defer s.ReleaseWorkspace(w)
	s.Cycle(engine.Mult, x, b, w) // warm pools and caches
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		s.Cycle(engine.Mult, x, b, w)
	}
	return time.Since(t0).Nanoseconds() / int64(reps)
}

// itersTo returns the first cycle index whose relative residual is at or
// below tau, or len(hist) when the target was not reached.
func itersTo(hist []float64, tau float64) int {
	for i, r := range hist {
		if r <= tau {
			return i
		}
	}
	return len(hist)
}

// SparsifyBench measures coarse-operator sparsification on the paper's
// problem families: per-level nnz before/after, total coarse-level
// reduction, iteration-count delta at cfg.Tau, and per-cycle wall-time
// delta. It prints the table to w and returns the machine-readable
// report (written to BENCH_sparsify.json by mgbench -sparsify -out).
func SparsifyBench(w io.Writer, cfg SparsifyBenchConfig) (*SparsifyReport, error) {
	d := DefaultSparsifyBench()
	if len(cfg.Problems) == 0 {
		cfg.Problems = d.Problems
	}
	if cfg.Size < 2 {
		cfg.Size = d.Size
	}
	if cfg.Theta == 0 {
		cfg.Theta = d.Theta
	}
	if cfg.Mode == "" {
		cfg.Mode = d.Mode
	}
	if cfg.Tau <= 0 {
		cfg.Tau = d.Tau
	}
	if cfg.MaxCycles < 1 {
		cfg.MaxCycles = d.MaxCycles
	}
	if cfg.Reps < 1 {
		cfg.Reps = d.Reps
	}
	mode, err := sparse.ParseSparsifyMode(cfg.Mode)
	if err != nil {
		return nil, err
	}
	rep := &SparsifyReport{Theta: cfg.Theta, Mode: mode.String(), Size: cfg.Size}

	for _, problem := range cfg.Problems {
		size := sparsifyProblemSize(problem, cfg.Size)
		a, err := BuildProblem(problem, size)
		if err != nil {
			return nil, err
		}
		opt := PaperSetup(problem, 1, smoother.WJacobi)
		golden, err := engine.New(a, opt.AMG, opt.Smoother)
		if err != nil {
			return nil, err
		}
		sOpt := opt.AMG
		sOpt.Sparsify = amg.SparsifyOptions{Theta: cfg.Theta, Mode: mode}
		sparsified, err := engine.New(a, sOpt, opt.Smoother)
		if err != nil {
			return nil, err
		}

		b := grid.RandomRHS(a.Rows, 11)
		_, gHist := golden.Solve(engine.Mult, b, cfg.MaxCycles)
		_, sHist := sparsified.Solve(engine.Mult, b, cfg.MaxCycles)

		pr := SparsifyProblemReport{
			Problem:           problem,
			Rows:              a.Rows,
			ItersGolden:       itersTo(gHist, cfg.Tau),
			ItersSparsified:   itersTo(sHist, cfg.Tau),
			CycleNSGolden:     timeCycles(golden, b, cfg.Reps),
			CycleNSSparsified: timeCycles(sparsified, b, cfg.Reps),
		}
		st := sparsified.Setup
		pr.FallbackLevels = st.SparsifyFallbacks
		// Level table: level 0 (never sparsified) plus the recorded
		// coarse-level outcomes; the coarsest level is never a candidate.
		pr.Levels = append(pr.Levels, SparsifyLevelRow{
			Level: 0, Rows: golden.LevelSize(0),
			NNZBefore: a.NNZ(), NNZAfter: a.NNZ(), Skipped: true,
		})
		for _, ls := range st.SparsifyLevels {
			pr.Levels = append(pr.Levels, SparsifyLevelRow{
				Level: ls.Level, Rows: sparsified.LevelSize(ls.Level),
				NNZBefore: ls.NNZBefore, NNZAfter: ls.NNZAfter,
				Skipped: ls.Skipped, Reverted: ls.Reverted,
			})
			pr.CoarseNNZBefore += ls.NNZBefore
			pr.CoarseNNZAfter += ls.NNZAfter
		}
		// The coarsest level is never a sparsification candidate (tiny,
		// LU-factored) but still counts toward the coarse-level totals, so
		// the reported reduction is over ALL levels below the finest.
		if L := sparsified.NumLevels(); L > 1 {
			cn := sparsified.H.Levels[L-1].NNZ()
			pr.Levels = append(pr.Levels, SparsifyLevelRow{
				Level: L - 1, Rows: sparsified.LevelSize(L - 1),
				NNZBefore: cn, NNZAfter: cn, Skipped: true,
			})
			pr.CoarseNNZBefore += cn
			pr.CoarseNNZAfter += cn
		}
		if pr.CoarseNNZBefore > 0 {
			pr.Reduction = 1 - float64(pr.CoarseNNZAfter)/float64(pr.CoarseNNZBefore)
		}
		rep.TotalCoarseNNZBefore += pr.CoarseNNZBefore
		rep.TotalCoarseNNZAfter += pr.CoarseNNZAfter
		rep.Problems = append(rep.Problems, pr)

		fmt.Fprintf(w, "# %s, %d rows, theta=%.2f mode=%s\n", problem, a.Rows, cfg.Theta, mode)
		fmt.Fprintf(w, "%-6s %9s %12s %12s %9s %9s\n", "level", "rows", "nnz/row", "nnz/row'", "nnz", "nnz'")
		for _, lr := range pr.Levels {
			note := ""
			if lr.Reverted {
				note = "  (guard reverted)"
			} else if lr.Skipped && lr.Level > 0 {
				note = "  (skipped)"
			}
			fmt.Fprintf(w, "%-6d %9d %12.1f %12.1f %9d %9d%s\n", lr.Level, lr.Rows,
				float64(lr.NNZBefore)/float64(lr.Rows), float64(lr.NNZAfter)/float64(lr.Rows),
				lr.NNZBefore, lr.NNZAfter, note)
		}
		fmt.Fprintf(w, "coarse nnz %d -> %d (-%.1f%%), iters %d -> %d, cycle %s -> %s, fallbacks %d\n\n",
			pr.CoarseNNZBefore, pr.CoarseNNZAfter, 100*pr.Reduction,
			pr.ItersGolden, pr.ItersSparsified,
			time.Duration(pr.CycleNSGolden), time.Duration(pr.CycleNSSparsified), pr.FallbackLevels)
	}
	if rep.TotalCoarseNNZBefore > 0 {
		rep.TotalReduction = 1 - float64(rep.TotalCoarseNNZAfter)/float64(rep.TotalCoarseNNZBefore)
	}
	rep.KernelAllocsPerOp = measureSparsifyAllocs(cfg.Theta, mode)
	fmt.Fprintf(w, "total coarse nnz %d -> %d (-%.1f%%), kernel allocs/op %.0f\n",
		rep.TotalCoarseNNZBefore, rep.TotalCoarseNNZAfter, 100*rep.TotalReduction, rep.KernelAllocsPerOp)
	return rep, nil
}

// measureSparsifyAllocs measures the steady-state heap allocations of
// one SparsifyStrengthInto call on a warm destination (the kernel's
// 0 allocs/op contract, embedded in the report so benchguard can check
// it without parsing go-test bench output).
func measureSparsifyAllocs(theta float64, mode sparse.SparsifyMode) float64 {
	a := grid.Laplacian27pt(12)
	dst := &sparse.CSR{}
	sparse.SparsifyStrengthInto(dst, a, theta, mode)
	return testing.AllocsPerRun(10, func() {
		sparse.SparsifyStrengthInto(dst, a, theta, mode)
	})
}

// WriteSparsifyReport writes the report as indented JSON to path.
func WriteSparsifyReport(path string, rep *SparsifyReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
