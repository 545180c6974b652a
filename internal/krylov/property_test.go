package krylov

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// withWorkers swaps the shared kernel pool to the given size and lowers
// the dispatch threshold so test-sized systems take the sharded path,
// restoring both on cleanup.
func withWorkers(t *testing.T, workers int) {
	t.Helper()
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	par.SetWorkers(workers)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})
}

// pcgMFSetup is the benchmark's lib-pcg-mf configuration at n = 24:
// matrix-free Stencil7 fine level of 13 824 rows (four reduction blocks),
// float32 coarse levels, Multadd preconditioning.
func pcgMFSetup(t *testing.T) (*engine.Engine, []float64) {
	t.Helper()
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	s, err := engine.NewOperator(op.NewStencil7(24), opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, grid.RandomRHS(s.LevelSize(0), 23)
}

// krylovSolve runs solver on s's fine operator, preconditioned by one
// cycle of m.
func krylovSolve(t *testing.T, solver func(context.Context, op.Operator, []float64, Options) (Result, error),
	s *engine.Engine, m engine.Method, b []float64, tol float64, maxIter int) Result {
	p := NewMGPreconditioner(s, m)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = tol
	opt.MaxIter = maxIter
	opt.M = p
	res, err := solver(context.Background(), s.Ops[0], b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkBitwiseAcrossWorkers solves each case once at the default pool and
// again at 1, 2 and 8 workers with every kernel sharded, and requires the
// iteration count, the residual history and the iterate bit for bit.
func checkBitwiseAcrossWorkers(t *testing.T, cases map[string]func() Result) {
	refs := map[string]Result{}
	for name, solve := range cases {
		refs[name] = solve()
		if refs[name].Verdict != vec.Converged {
			t.Fatalf("%s: %v after %d iterations", name, refs[name].Verdict, refs[name].Iterations)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run("", func(t *testing.T) {
			withWorkers(t, workers)
			for name, solve := range cases {
				got, ref := solve(), refs[name]
				if got.Iterations != ref.Iterations {
					t.Fatalf("%s workers=%d: %d iterations, want %d", name, workers, got.Iterations, ref.Iterations)
				}
				for i := range ref.History {
					if got.History[i] != ref.History[i] {
						t.Fatalf("%s workers=%d: history[%d] = %v, want %v", name, workers, i, got.History[i], ref.History[i])
					}
				}
				for i := range ref.X {
					if got.X[i] != ref.X[i] {
						t.Fatalf("%s workers=%d: x[%d] = %v, want %v", name, workers, i, got.X[i], ref.X[i])
					}
				}
			}
		})
	}
}

// TestPCGBitwiseAcrossWorkerCounts pins the determinism contract of the
// Krylov subsystem: elementwise updates are bitwise-identical to serial
// and every reduction is block-ordered, so the whole residual history and
// iterate are bit-stable at any worker count — on one block (7pt n = 8)
// and on the four sharded blocks of the lib-pcg-mf configuration.
func TestPCGBitwiseAcrossWorkerCounts(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 17)
	mf, bmf := pcgMFSetup(t)
	checkBitwiseAcrossWorkers(t, map[string]func() Result{
		"7pt-n8/mult":              func() Result { return krylovSolve(t, PCGCtx, s, engine.Mult, b, 1e-10, 60) },
		"stencil7-n24-f32/multadd": func() Result { return krylovSolve(t, PCGCtx, mf, engine.Multadd, bmf, 1e-8, 100) },
	})
}

// TestFGMRESBitwiseAcrossWorkerCounts pins the same property for the
// flexible GMRES path.
func TestFGMRESBitwiseAcrossWorkerCounts(t *testing.T) {
	s, b := buildConvDiffSetup(t, 8, 4.0)
	mf, bmf := pcgMFSetup(t)
	checkBitwiseAcrossWorkers(t, map[string]func() Result{
		"convdiff-n8/multadd":      func() Result { return krylovSolve(t, FGMRESCtx, s, engine.Multadd, b, 1e-9, 80) },
		"stencil7-n24-f32/multadd": func() Result { return krylovSolve(t, FGMRESCtx, mf, engine.Multadd, bmf, 1e-8, 100) },
	})
}

// TestConcurrentSolvesMatchLoneSolves: a PCG(Multadd) solve and Multadd
// cycling run at once on one engine, every kernel sharded over a
// two-worker pool, so kernels of each solve find the pool running the
// other's and run their shards on the caller. Each history and iterate
// equals that of the same solve run alone, bit for bit. Two Ps let the
// solves overlap (at one, each tends to run to its end alone).
func TestConcurrentSolvesMatchLoneSolves(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, b := pcgMFSetup(t)
	withWorkers(t, 2)
	pcg := func() (Result, error) {
		p := NewMGPreconditioner(s, engine.Multadd)
		defer p.Release()
		opt := DefaultOptions()
		opt.Tol, opt.MaxIter, opt.M = 1e-8, 100, p
		return PCG(s.Ops[0], b, opt)
	}
	cycle := func() Result {
		x, h := s.Solve(engine.Multadd, b, 12)
		return Result{X: x, History: h}
	}
	lonePCG, err := pcg()
	if err != nil {
		t.Fatal(err)
	}
	loneCycle := cycle()
	before := par.ReadStats().Contended
	for round := 0; round < 3; round++ {
		var gotPCG, gotCycle Result
		var pcgErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			gotPCG, pcgErr = pcg()
		}()
		go func() {
			defer wg.Done()
			gotCycle = cycle()
		}()
		wg.Wait()
		if pcgErr != nil {
			t.Fatal(pcgErr)
		}
		for _, c := range []struct {
			name      string
			got, lone Result
		}{{"PCG(Multadd)", gotPCG, lonePCG}, {"Multadd cycling", gotCycle, loneCycle}} {
			if !slices.Equal(c.got.History, c.lone.History) || !slices.Equal(c.got.X, c.lone.X) {
				t.Fatalf("round %d: %s beside another solve differs from its lone solve", round, c.name)
			}
		}
	}
	if par.ReadStats().Contended == before {
		t.Error("no kernel found the pool busy: the solves never overlapped")
	}
}
