package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// KrylovBenchConfig parameterizes the Krylov-vs-cycling table: PCG
// iteration counts against plain multiplicative cycling on the paper's
// four problem families, plus the non-symmetric row where cycling stalls
// and FGMRES does not.
type KrylovBenchConfig struct {
	// Problems are the SPD families for the PCG rows (default all four).
	Problems []string
	// Size is the mesh parameter (default 16, elasticity scaled down as
	// in the other benches).
	Size int
	// Tau is the relative-residual target for the iteration counts
	// (default 1e-6, the sparsify bench's reachable-by-all target).
	Tau float64
	// MaxIter bounds both the cycle count and the PCG iteration count
	// (default 800).
	MaxIter int
	// ConvDiffBeta is the convection strength of the stall row (default
	// 1024: strong enough that plain cycling cannot reach ConvDiffTau
	// within ConvDiffBudget, while AMG-preconditioned FGMRES can).
	ConvDiffBeta float64
	// ConvDiffSize is the stall row's mesh parameter (default Size).
	ConvDiffSize int
	// ConvDiffTau is the stall row's residual target (default 1e-8).
	ConvDiffTau float64
	// ConvDiffBudget bounds both solvers on the stall row (default 100).
	ConvDiffBudget int
	// BlockK is the width of the block-vs-solo bitwise check (default 3).
	BlockK int
}

// DefaultKrylovBench covers the paper's four problem families plus the
// strong-convection stall row.
func DefaultKrylovBench() KrylovBenchConfig {
	return KrylovBenchConfig{
		Problems:       AllProblems(),
		Size:           16,
		Tau:            1e-6,
		MaxIter:        800,
		ConvDiffBeta:   1024,
		ConvDiffTau:    1e-8,
		ConvDiffBudget: 100,
		BlockK:         3,
	}
}

// KrylovProblemRow is one SPD family of BENCH_krylov.json: iterations to
// Tau for plain Mult cycling versus Mult-preconditioned PCG, with solve
// wall times for the throughput table.
type KrylovProblemRow struct {
	Problem string `json:"problem"`
	Rows    int    `json:"rows"`
	// ItersCycle/ItersPCG are iterations to Tau (MaxIter = not reached).
	ItersCycle int `json:"iters_cycle"`
	ItersPCG   int `json:"iters_pcg"`
	// PCGConverged is the solver's own Tau-based verdict.
	PCGConverged bool  `json:"pcg_converged"`
	SolveNSCycle int64 `json:"solve_ns_cycle"`
	SolveNSPCG   int64 `json:"solve_ns_pcg"`
}

// KrylovConvDiffRow is the non-symmetric stall row: within the shared
// budget, plain cycling must NOT reach Tau and FGMRES must.
type KrylovConvDiffRow struct {
	Beta   float64 `json:"beta"`
	Rows   int     `json:"rows"`
	Tau    float64 `json:"tau"`
	Budget int     `json:"budget"`
	// CycleRelRes is where cycling ended after Budget cycles;
	// CycleStalled records that it was still above Tau.
	CycleRelRes  float64 `json:"cycle_relres"`
	CycleStalled bool    `json:"cycle_stalled"`
	FGMRESIters  int     `json:"fgmres_iters"`
	FGMRESConv   bool    `json:"fgmres_converged"`
}

// KrylovReport is the BENCH_krylov.json schema, consumed by
// benchguard -krylov.
type KrylovReport struct {
	Size    int                `json:"size"`
	Tau     float64            `json:"tau"`
	MaxIter int                `json:"maxiter"`
	Rows    []KrylovProblemRow `json:"problems"`
	// ConvDiff is the FGMRES-wins-where-cycling-stalls row.
	ConvDiff KrylovConvDiffRow `json:"conv_diff"`
	// PCGAllocsPerSolve / FGMRESAllocsPerSolve are the steady-state heap
	// allocations of one warm whole solve with caller-reused X/History
	// buffers (the 0 allocs contract, testing.AllocsPerRun).
	PCGAllocsPerSolve    float64 `json:"pcg_allocs_per_solve"`
	FGMRESAllocsPerSolve float64 `json:"fgmres_allocs_per_solve"`
	// BlockMatchesSolo records the block-PCG bitwise contract: every
	// column of a BlockK-wide block solve equals the solo solve.
	BlockMatchesSolo bool `json:"block_matches_solo"`
}

// KrylovBench measures AMG-preconditioned Krylov against plain cycling:
// per-family iteration counts to Tau, the conv-diff stall row, the
// allocation contract and the block-vs-solo bitwise contract. It prints
// the table to w and returns the machine-readable report (written to
// BENCH_krylov.json by mgbench -krylov -out).
func KrylovBench(w io.Writer, cfg KrylovBenchConfig) (*KrylovReport, error) {
	d := DefaultKrylovBench()
	if len(cfg.Problems) == 0 {
		cfg.Problems = d.Problems
	}
	if cfg.Size < 2 {
		cfg.Size = d.Size
	}
	if cfg.Tau <= 0 {
		cfg.Tau = d.Tau
	}
	if cfg.MaxIter < 1 {
		cfg.MaxIter = d.MaxIter
	}
	if cfg.ConvDiffBeta <= 0 {
		cfg.ConvDiffBeta = d.ConvDiffBeta
	}
	if cfg.ConvDiffSize < 2 {
		cfg.ConvDiffSize = cfg.Size
	}
	if cfg.ConvDiffTau <= 0 {
		cfg.ConvDiffTau = d.ConvDiffTau
	}
	if cfg.ConvDiffBudget < 1 {
		cfg.ConvDiffBudget = d.ConvDiffBudget
	}
	if cfg.BlockK < 2 {
		cfg.BlockK = d.BlockK
	}
	rep := &KrylovReport{Size: cfg.Size, Tau: cfg.Tau, MaxIter: cfg.MaxIter}

	fmt.Fprintf(w, "# PCG (mult-preconditioned) vs plain mult cycling, tau=%.0e\n", cfg.Tau)
	fmt.Fprintf(w, "%-18s %9s %12s %10s %14s %12s\n", "problem", "rows", "iters cycle", "iters pcg", "cycle solve", "pcg solve")
	for _, problem := range cfg.Problems {
		size := sparsifyProblemSize(problem, cfg.Size)
		a, err := BuildProblem(problem, size)
		if err != nil {
			return nil, err
		}
		opt := PaperSetup(problem, 1, smoother.WJacobi)
		s, err := engine.New(a, opt.AMG, opt.Smoother)
		if err != nil {
			return nil, err
		}
		b := grid.RandomRHS(a.Rows, 11)

		_, hist := s.Solve(engine.Mult, b, cfg.MaxIter)
		itersCycle := itersTo(hist, cfg.Tau)
		// Time-to-tau, not time-for-the-whole-budget: mean cycle time
		// times the cycles the target actually needed.
		cycleNS := timeCycles(s, b, 10) * int64(itersCycle)

		p := krylov.NewMGPreconditioner(s, engine.Mult)
		ko := krylov.DefaultOptions()
		ko.Tol = cfg.Tau
		ko.MaxIter = cfg.MaxIter
		ko.M = p
		t0 := time.Now()
		res, err := krylov.PCG(s.Ops[0], b, ko)
		pcgNS := time.Since(t0).Nanoseconds()
		p.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: pcg: %w", problem, err)
		}

		row := KrylovProblemRow{
			Problem:      problem,
			Rows:         a.Rows,
			ItersCycle:   itersCycle,
			ItersPCG:     res.Iterations,
			PCGConverged: res.Converged,
			SolveNSCycle: cycleNS,
			SolveNSPCG:   pcgNS,
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(w, "%-18s %9d %12d %10d %14s %12s\n", problem, a.Rows,
			row.ItersCycle, row.ItersPCG,
			time.Duration(row.SolveNSCycle), time.Duration(row.SolveNSPCG))
	}

	cd, err := krylovConvDiffRow(cfg)
	if err != nil {
		return nil, err
	}
	rep.ConvDiff = *cd
	fmt.Fprintf(w, "\n# conv-diff beta=%.0f, tau=%.0e, budget %d\n", cd.Beta, cd.Tau, cd.Budget)
	fmt.Fprintf(w, "mult cycling: relres %.3e after %d cycles (stalled=%v); fgmres: %d iters, converged=%v\n",
		cd.CycleRelRes, cd.Budget, cd.CycleStalled, cd.FGMRESIters, cd.FGMRESConv)

	rep.PCGAllocsPerSolve, rep.FGMRESAllocsPerSolve = measureKrylovAllocs()
	rep.BlockMatchesSolo = checkBlockMatchesSolo(cfg.BlockK)
	fmt.Fprintf(w, "\nallocs/solve: pcg %.0f, fgmres %.0f; block(k=%d) matches solo: %v\n",
		rep.PCGAllocsPerSolve, rep.FGMRESAllocsPerSolve, cfg.BlockK, rep.BlockMatchesSolo)
	return rep, nil
}

// krylovConvDiffRow runs the stall row: plain Mult cycling and
// Multadd-preconditioned FGMRES share an iteration budget on the
// strong-convection upwind operator.
func krylovConvDiffRow(cfg KrylovBenchConfig) (*KrylovConvDiffRow, error) {
	a := grid.ConvectionDiffusion7pt(cfg.ConvDiffSize, cfg.ConvDiffBeta)
	opt := PaperSetup(ProblemConvDiff, 1, smoother.WJacobi)
	s, err := engine.New(a, opt.AMG, opt.Smoother)
	if err != nil {
		return nil, err
	}
	b := grid.RandomRHS(a.Rows, 11)

	_, hist := s.Solve(engine.Mult, b, cfg.ConvDiffBudget)
	last := hist[len(hist)-1]

	p := krylov.NewMGPreconditioner(s, engine.Multadd)
	defer p.Release()
	ko := krylov.DefaultOptions()
	ko.Tol = cfg.ConvDiffTau
	ko.MaxIter = cfg.ConvDiffBudget
	ko.M = p
	res, err := krylov.FGMRES(s.Ops[0], b, ko)
	if err != nil {
		return nil, fmt.Errorf("conv-diff fgmres: %w", err)
	}
	return &KrylovConvDiffRow{
		Beta:         cfg.ConvDiffBeta,
		Rows:         a.Rows,
		Tau:          cfg.ConvDiffTau,
		Budget:       cfg.ConvDiffBudget,
		CycleRelRes:  last,
		CycleStalled: last > cfg.ConvDiffTau,
		FGMRESIters:  res.Iterations,
		FGMRESConv:   res.Converged,
	}, nil
}

// measureKrylovAllocs measures the steady-state heap allocations of one
// warm whole PCG and FGMRES solve with caller-reused X/History buffers
// (the subsystem's 0 allocs contract, embedded in the report so
// benchguard can check it without parsing go-test bench output).
func measureKrylovAllocs() (pcg, fgmres float64) {
	a := grid.Laplacian7pt(10)
	opt := PaperSetup(Problem7pt, 1, smoother.WJacobi)
	s, err := engine.New(a, opt.AMG, opt.Smoother)
	if err != nil {
		return -1, -1
	}
	b := grid.RandomRHS(a.Rows, 7)
	p := krylov.NewMGPreconditioner(s, engine.Mult)
	defer p.Release()
	ko := krylov.DefaultOptions()
	ko.Tol = 1e-8
	ko.MaxIter = 100
	ko.M = p
	ko.X = make([]float64, a.Rows)
	ko.History = make([]float64, 0, ko.MaxIter+1)

	runPCG := func() { krylov.PCG(s.Ops[0], b, ko) }
	runPCG()
	pcg = testing.AllocsPerRun(10, runPCG)

	kg := ko
	kg.Restart = 20
	runFGMRES := func() { krylov.FGMRES(s.Ops[0], b, kg) }
	runFGMRES()
	fgmres = testing.AllocsPerRun(10, runFGMRES)
	return pcg, fgmres
}

// checkBlockMatchesSolo verifies the block-PCG bitwise contract on a
// k-wide batch: identical histories, iterates and iteration counts per
// column against solo solves.
func checkBlockMatchesSolo(k int) bool {
	a := grid.Laplacian7pt(10)
	opt := PaperSetup(Problem7pt, 1, smoother.WJacobi)
	s, err := engine.New(a, opt.AMG, opt.Smoother)
	if err != nil {
		return false
	}
	n := a.Rows
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = grid.RandomRHS(n, int64(40+c))
	}
	packed := make([]float64, n*k)
	sparse.PackBlock(packed, cols)
	ko := krylov.DefaultOptions()
	ko.Tol = 1e-8
	ko.MaxIter = 200
	blk, err := krylov.BlockPCG(s, engine.Mult, packed, k, ko)
	if err != nil {
		return false
	}
	got := make([]float64, n)
	for c := 0; c < k; c++ {
		p := krylov.NewMGPreconditioner(s, engine.Mult)
		solo := ko
		solo.M = p
		ref, err := krylov.PCG(s.Ops[0], cols[c], solo)
		p.Release()
		if err != nil || blk.Errs[c] != nil {
			return false
		}
		bc := blk.Cols[c]
		if bc.Iterations != ref.Iterations || bc.Converged != ref.Converged ||
			len(bc.History) != len(ref.History) {
			return false
		}
		for i := range bc.History {
			if bc.History[i] != ref.History[i] {
				return false
			}
		}
		sparse.UnpackBlockColumn(got, blk.X, k, c)
		for i := range got {
			if got[i] != ref.X[i] {
				return false
			}
		}
	}
	return true
}

// WriteKrylovReport writes the report as indented JSON to path.
func WriteKrylovReport(path string, rep *KrylovReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
