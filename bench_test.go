// Benchmarks regenerating the paper's evaluation, one per table and figure,
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Each benchmark measures the wall-clock cost of its experiment's unit of
// work and reports the experiment's headline quantity (final relative
// residual, cycles, levels, ...) via b.ReportMetric, so `go test -bench=.`
// output doubles as a compact reproduction log. The full paper-formatted
// tables come from cmd/mgbench and cmd/mgsim.
package asyncmg_test

import (
	"fmt"
	"sync"
	"testing"

	"asyncmg"
)

// lazily built shared setups (AMG setup is expensive; benchmarks measure
// solves, not setup, except for the explicitly named setup benchmarks).
var (
	setupMu    sync.Mutex
	setupCache = map[string]*asyncmg.Setup{}
)

func benchSetup(b *testing.B, problem string, size, agg int, kind asyncmg.SmootherKind, omega float64) *asyncmg.Setup {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%v/%v", problem, size, agg, kind, omega)
	setupMu.Lock()
	defer setupMu.Unlock()
	if s, ok := setupCache[key]; ok {
		return s
	}
	a, err := asyncmg.BuildProblem(problem, size)
	if err != nil {
		b.Fatal(err)
	}
	opt := asyncmg.DefaultAMGOptions()
	opt.AggressiveLevels = agg
	s, err := asyncmg.NewSetup(a, opt, asyncmg.SmootherConfig{Kind: kind, Omega: omega, Blocks: 1})
	if err != nil {
		b.Fatal(err)
	}
	setupCache[key] = s
	return s
}

// ---- Figure 1: semi-async model, α sweep, δ = 0 ----

func BenchmarkFig1SemiAsync(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			s := benchSetup(b, "27pt", 10, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SimulateModel(s, rhs, asyncmg.ModelConfig{
					Variant: asyncmg.SemiAsync, Method: asyncmg.Multadd,
					Alpha: alpha, Delta: 0, Updates: 20, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
			}
			b.ReportMetric(last, "relres")
		})
	}
}

// ---- Figure 2: full-async model, δ sweep, α = 0.1 ----

func BenchmarkFig2FullAsync(b *testing.B) {
	for _, variant := range []asyncmg.ModelVariant{asyncmg.FullAsyncSolution, asyncmg.FullAsyncResidual} {
		for _, delta := range []int{0, 4, 16} {
			b.Run(fmt.Sprintf("%v/delta=%d", variant, delta), func(b *testing.B) {
				s := benchSetup(b, "27pt", 10, 1, asyncmg.WJacobi, 0.9)
				rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := asyncmg.SimulateModel(s, rhs, asyncmg.ModelConfig{
						Variant: variant, Method: asyncmg.Multadd,
						Alpha: 0.1, Delta: delta, Updates: 20, Seed: int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res.RelRes
				}
				b.ReportMetric(last, "relres")
			})
		}
	}
}

// ---- Figure 4: real async solvers, grid-size independence (stencils) ----

func BenchmarkFig4GridIndependence(b *testing.B) {
	for _, size := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("27pt/n=%d", size), func(b *testing.B) {
			s := benchSetup(b, "27pt", size, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SolveAsync(s, rhs, asyncmg.AsyncConfig{
					Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes,
					Criterion: asyncmg.Criterion1, Threads: 8, MaxCycles: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
			}
			// Grid-size independence: this metric should stay flat across
			// the size sub-benchmarks.
			b.ReportMetric(last, "relres")
		})
	}
}

// ---- Figure 5: FEM Laplace (ball mesh), no aggressive coarsening ----

func BenchmarkFig5FEMLaplace(b *testing.B) {
	for _, size := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			s := benchSetup(b, "mfem-laplace", size, 0, asyncmg.WJacobi, 0.5)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SolveAsync(s, rhs, asyncmg.AsyncConfig{
					Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes,
					Criterion: asyncmg.Criterion1, Threads: 8, MaxCycles: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
			}
			b.ReportMetric(last, "relres")
		})
	}
}

// ---- Table I: one sub-benchmark per matrix × representative methods ----

func table1Methods() []struct {
	name string
	cfg  asyncmg.AsyncConfig
} {
	return []struct {
		name string
		cfg  asyncmg.AsyncConfig
	}{
		{"syncMult", asyncmg.AsyncConfig{Method: asyncmg.Mult, Sync: true}},
		{"syncMultadd", asyncmg.AsyncConfig{Method: asyncmg.Multadd, Sync: true, Write: asyncmg.AtomicWrite}},
		{"asyncMultaddLocal", asyncmg.AsyncConfig{Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes}},
		{"asyncAFACx", asyncmg.AsyncConfig{Method: asyncmg.AFACx, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes}},
	}
}

func benchTable1(b *testing.B, problem string, size int, omega float64) {
	for _, m := range table1Methods() {
		b.Run(m.name, func(b *testing.B) {
			s := benchSetup(b, problem, size, 2, asyncmg.WJacobi, omega)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			var corr float64
			for i := 0; i < b.N; i++ {
				cfg := m.cfg
				cfg.Criterion = asyncmg.Criterion2
				cfg.Threads = 8
				cfg.MaxCycles = 20
				res, err := asyncmg.SolveAsync(s, rhs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
				corr = res.AvgCorrects
			}
			b.ReportMetric(last, "relres")
			b.ReportMetric(corr, "corrects")
		})
	}
}

func BenchmarkTable1_7pt(b *testing.B)            { benchTable1(b, "7pt", 12, 0.9) }
func BenchmarkTable1_27pt(b *testing.B)           { benchTable1(b, "27pt", 12, 0.9) }
func BenchmarkTable1_MFEMLaplace(b *testing.B)    { benchTable1(b, "mfem-laplace", 8, 0.5) }
func BenchmarkTable1_MFEMElasticity(b *testing.B) { benchTable1(b, "mfem-elasticity", 3, 0.5) }

// ---- Figure 6: wall-clock vs thread count ----

func BenchmarkFig6ThreadScaling(b *testing.B) {
	for _, threads := range []int{4, 8, 16} {
		for _, m := range []struct {
			name string
			cfg  asyncmg.AsyncConfig
		}{
			{"syncMult", asyncmg.AsyncConfig{Method: asyncmg.Mult, Sync: true}},
			{"syncMultadd", asyncmg.AsyncConfig{Method: asyncmg.Multadd, Sync: true, Write: asyncmg.LockWrite}},
			{"asyncMultadd", asyncmg.AsyncConfig{Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes}},
		} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, m.name), func(b *testing.B) {
				s := benchSetup(b, "7pt", 12, 2, asyncmg.WJacobi, 0.9)
				if threads < s.NumLevels() {
					b.Skipf("%d threads < %d grids", threads, s.NumLevels())
				}
				rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
				for i := 0; i < b.N; i++ {
					cfg := m.cfg
					cfg.Criterion = asyncmg.Criterion1
					cfg.Threads = threads
					cfg.MaxCycles = 20
					if _, err := asyncmg.SolveAsync(s, rhs, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationWriteMode isolates lock-write vs atomic-write.
func BenchmarkAblationWriteMode(b *testing.B) {
	for _, wm := range []asyncmg.WriteMode{asyncmg.LockWrite, asyncmg.AtomicWrite} {
		b.Run(wm.String(), func(b *testing.B) {
			s := benchSetup(b, "27pt", 12, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			for i := 0; i < b.N; i++ {
				if _, err := asyncmg.SolveAsync(s, rhs, asyncmg.AsyncConfig{
					Method: asyncmg.Multadd, Write: wm, Res: asyncmg.LocalRes,
					Criterion: asyncmg.Criterion1, Threads: 8, MaxCycles: 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationResMode isolates local-res vs global-res vs r-Multadd.
func BenchmarkAblationResMode(b *testing.B) {
	for _, rm := range []asyncmg.ResMode{asyncmg.LocalRes, asyncmg.GlobalRes, asyncmg.ResidualRes} {
		b.Run(rm.String(), func(b *testing.B) {
			s := benchSetup(b, "27pt", 12, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SolveAsync(s, rhs, asyncmg.AsyncConfig{
					Method: asyncmg.Multadd, Write: asyncmg.AtomicWrite, Res: rm,
					Criterion: asyncmg.Criterion1, Threads: 8, MaxCycles: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
			}
			b.ReportMetric(last, "relres")
		})
	}
}

// BenchmarkAblationBPX contrasts the over-correcting BPX baseline with
// Multadd: same additive structure, smoothed vs plain interpolants.
func BenchmarkAblationBPX(b *testing.B) {
	for _, m := range []asyncmg.Method{asyncmg.BPX, asyncmg.Multadd} {
		b.Run(m.String(), func(b *testing.B) {
			s := benchSetup(b, "7pt", 10, 0, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var last float64
			for i := 0; i < b.N; i++ {
				_, hist := asyncmg.SolveSync(s, m, rhs, 15)
				last = hist[len(hist)-1]
			}
			b.ReportMetric(last, "relres")
		})
	}
}

// BenchmarkAblationAggressive measures the effect of aggressive coarsening
// levels on setup cost and hierarchy shape.
func BenchmarkAblationAggressive(b *testing.B) {
	a, err := asyncmg.BuildProblem("27pt", 12)
	if err != nil {
		b.Fatal(err)
	}
	for _, agg := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("agg=%d", agg), func(b *testing.B) {
			var levels, complexity float64
			for i := 0; i < b.N; i++ {
				opt := asyncmg.DefaultAMGOptions()
				opt.AggressiveLevels = agg
				h, err := asyncmg.BuildHierarchy(a, opt)
				if err != nil {
					b.Fatal(err)
				}
				levels = float64(h.NumLevels())
				complexity = h.OperatorComplexity()
			}
			b.ReportMetric(levels, "levels")
			b.ReportMetric(complexity, "opcomplexity")
		})
	}
}

// BenchmarkAblationCriterion contrasts the two stopping rules.
func BenchmarkAblationCriterion(b *testing.B) {
	for _, c := range []asyncmg.StopCriterion{asyncmg.Criterion1, asyncmg.Criterion2} {
		b.Run(c.String(), func(b *testing.B) {
			s := benchSetup(b, "7pt", 12, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			var corr float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SolveAsync(s, rhs, asyncmg.AsyncConfig{
					Method: asyncmg.Multadd, Write: asyncmg.AtomicWrite, Res: asyncmg.LocalRes,
					Criterion: c, Threads: 8, MaxCycles: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				corr = res.AvgCorrects
			}
			b.ReportMetric(corr, "corrects")
		})
	}
}

// ---- Kernel benchmarks (the substrate costs underneath every experiment) ----

func BenchmarkKernelSpMV27pt(b *testing.B) {
	a, err := asyncmg.BuildProblem("27pt", 16)
	if err != nil {
		b.Fatal(err)
	}
	x := asyncmg.RandomRHS(a.Rows, 1)
	y := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12)) // 8B value + 4B index per entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MatVec(y, x)
	}
}

// BenchmarkKernelSparsify measures the strength-aware sparsification
// kernel on the densified 27-point coarse-operator workload, one
// sub-benchmark per compensation mode. The kernel's contract is 0
// allocs/op on a warm destination (TestSparsifyIntoSteadyStateAllocs).
func BenchmarkKernelSparsify(b *testing.B) {
	a, err := asyncmg.BuildProblem("27pt", 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []asyncmg.SparsifyMode{asyncmg.SparsifyLump, asyncmg.SparsifyRescale, asyncmg.SparsifyDropOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			dst := &asyncmg.Matrix{}
			asyncmg.SparsifyStrengthInto(dst, a, 0.25, mode) // warm the destination buffers
			b.SetBytes(int64(a.NNZ() * 12))                  // 8B value + 4B index scanned per entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asyncmg.SparsifyStrengthInto(dst, a, 0.25, mode)
			}
		})
	}
}

func BenchmarkKernelAMGSetup(b *testing.B) {
	for _, problem := range []string{"7pt", "27pt"} {
		b.Run(problem, func(b *testing.B) {
			a, err := asyncmg.BuildProblem(problem, 12)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := asyncmg.BuildHierarchy(a, asyncmg.DefaultAMGOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelCycleAllocs drives one engine cycle per method on a held
// workspace with allocation reporting: the engine's contract is 0
// allocs/op in steady state (see internal/engine's alloc tests).
func BenchmarkKernelCycleAllocs(b *testing.B) {
	for _, m := range []asyncmg.Method{asyncmg.Mult, asyncmg.Multadd, asyncmg.AFACx, asyncmg.BPX} {
		b.Run(m.String(), func(b *testing.B) {
			s := benchSetup(b, "27pt", 12, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			x := make([]float64, s.LevelSize(0))
			w := s.AcquireWorkspace()
			defer s.ReleaseWorkspace(w)
			s.Cycle(m, x, rhs, w) // warm up the coarse solver
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Cycle(m, x, rhs, w)
			}
		})
	}
}

// BenchmarkKernelCycleObserved repeats BenchmarkKernelCycleAllocs with a
// metrics observer attached: the observability contract is 0 allocs/op and
// under 5% time overhead relative to the unobserved cycle (the instruments
// are preallocated atomics; bench/'s obs.observer_overhead_pct measures it).
func BenchmarkKernelCycleObserved(b *testing.B) {
	for _, m := range []asyncmg.Method{asyncmg.Mult, asyncmg.Multadd, asyncmg.AFACx, asyncmg.BPX} {
		b.Run(m.String(), func(b *testing.B) {
			s := benchSetup(b, "27pt", 12, 1, asyncmg.WJacobi, 0.9)
			s.SetObserver(asyncmg.NewObserver(s.NumLevels()))
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			x := make([]float64, s.LevelSize(0))
			w := s.AcquireWorkspace()
			defer s.ReleaseWorkspace(w)
			s.Cycle(m, x, rhs, w) // warm up the coarse solver
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Cycle(m, x, rhs, w)
			}
		})
	}
}

func BenchmarkKernelVCycle(b *testing.B) {
	for _, m := range []asyncmg.Method{asyncmg.Mult, asyncmg.Multadd, asyncmg.AFACx} {
		b.Run(m.String(), func(b *testing.B) {
			s := benchSetup(b, "27pt", 12, 1, asyncmg.WJacobi, 0.9)
			rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asyncmg.SolveSync(s, m, rhs, 1)
			}
		})
	}
}

// BenchmarkAblationPreconditioner compares plain CG against multigrid
// preconditioning (iteration counts reported as metrics).
func BenchmarkAblationPreconditioner(b *testing.B) {
	for _, tc := range []string{"plain", "bpx", "sym-multadd"} {
		b.Run(tc, func(b *testing.B) {
			s := benchSetup(b, "7pt", 10, 0, asyncmg.WJacobi, 0.9)
			a := s.H.Levels[0].A
			rhs := asyncmg.RandomRHS(a.Rows, 1)
			var iters float64
			for i := 0; i < b.N; i++ {
				opt := asyncmg.DefaultCGOptions()
				switch tc {
				case "bpx":
					opt.M = asyncmg.NewMGPreconditioner(s, asyncmg.BPX)
				case "sym-multadd":
					p := asyncmg.NewMGPreconditioner(s, asyncmg.Multadd)
					p.Symmetrized = true
					opt.M = p
				}
				res, err := asyncmg.SolveCG(a, rhs, opt)
				if err != nil {
					b.Fatal(err)
				}
				iters = float64(res.Iterations)
			}
			b.ReportMetric(iters, "iterations")
		})
	}
}

// BenchmarkDistributed measures the message-passing distributed solver.
func BenchmarkDistributed(b *testing.B) {
	s := benchSetup(b, "7pt", 10, 1, asyncmg.WJacobi, 0.9)
	rhs := asyncmg.RandomRHS(s.LevelSize(0), 1)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := asyncmg.SolveDistributed(s, rhs, asyncmg.DistConfig{
			Method: asyncmg.Multadd, MaxCorrections: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.RelRes
	}
	b.ReportMetric(last, "relres")
}

// BenchmarkKernelSmootherSweep measures one sweep of each smoother on the
// 27pt operator.
func BenchmarkKernelSmootherSweep(b *testing.B) {
	for _, kind := range []asyncmg.SmootherKind{
		asyncmg.WJacobi, asyncmg.L1Jacobi, asyncmg.HybridJGS, asyncmg.AsyncGS,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			// One Multadd cycle exercises exactly one sweep of this
			// smoother per level plus the transfer operators.
			setup := benchSetup(b, "27pt", 14, 1, kind, 0.9)
			rhs := asyncmg.RandomRHS(setup.LevelSize(0), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asyncmg.SolveSync(setup, asyncmg.Multadd, rhs, 1)
			}
		})
	}
}

// BenchmarkAblationCoarsening compares the three coarsening algorithms'
// setup cost and resulting hierarchy shape.
func BenchmarkAblationCoarsening(b *testing.B) {
	a, err := asyncmg.BuildProblem("27pt", 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []asyncmg.CoarsenMethod{asyncmg.PMIS, asyncmg.HMIS, asyncmg.RugeStuben} {
		b.Run(m.String(), func(b *testing.B) {
			var levels, oc float64
			for i := 0; i < b.N; i++ {
				opt := asyncmg.DefaultAMGOptions()
				opt.Coarsening = m
				opt.AggressiveLevels = 0
				h, err := asyncmg.BuildHierarchy(a, opt)
				if err != nil {
					b.Fatal(err)
				}
				levels = float64(h.NumLevels())
				oc = h.OperatorComplexity()
			}
			b.ReportMetric(levels, "levels")
			b.ReportMetric(oc, "opcomplexity")
		})
	}
}

// BenchmarkChaoticRelaxation measures the distributed asynchronous Jacobi
// of Equation 5 against its synchronous (barriered) counterpart.
func BenchmarkChaoticRelaxation(b *testing.B) {
	a, err := asyncmg.BuildProblem("7pt", 10)
	if err != nil {
		b.Fatal(err)
	}
	rhs := asyncmg.RandomRHS(a.Rows, 1)
	for _, tc := range []struct {
		name string
		sync bool
	}{{"async", false}, {"sync", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := asyncmg.SolveChaotic(a, rhs, asyncmg.ChaoticConfig{
					Processes: 8, Sweeps: 100, Omega: 0.9, Synchronous: tc.sync,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.RelRes
			}
			b.ReportMetric(last, "relres")
		})
	}
}
