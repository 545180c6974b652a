package krylov

import (
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/par"
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

// TestPCGBitwiseAcrossWorkerCounts pins the determinism contract of the
// Krylov subsystem: elementwise updates run on sharded kernels that are
// bitwise-identical to serial, and reductions are serial, so the whole
// residual history and iterate are bit-stable at any worker count.
func TestPCGBitwiseAcrossWorkerCounts(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 17)
	solve := func() Result {
		p := NewMGPreconditioner(s, engine.Mult)
		defer p.Release()
		opt := DefaultOptions()
		opt.Tol = 1e-10
		opt.MaxIter = 60
		opt.M = p
		res, err := PCG(s.Ops[0], b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := solve()
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run("", func(t *testing.T) {
			withWorkers(t, workers)
			got := solve()
			if got.Iterations != ref.Iterations {
				t.Fatalf("workers=%d: %d iterations, want %d", workers, got.Iterations, ref.Iterations)
			}
			for i := range ref.History {
				if got.History[i] != ref.History[i] {
					t.Fatalf("workers=%d: history[%d] = %v, want %v", workers, i, got.History[i], ref.History[i])
				}
			}
			for i := range ref.X {
				if got.X[i] != ref.X[i] {
					t.Fatalf("workers=%d: x[%d] = %v, want %v", workers, i, got.X[i], ref.X[i])
				}
			}
		})
	}
}

// TestFGMRESBitwiseAcrossWorkerCounts pins the same property for the
// flexible GMRES path.
func TestFGMRESBitwiseAcrossWorkerCounts(t *testing.T) {
	s, b := buildConvDiffSetup(t, 8, 4.0)
	solve := func() Result {
		p := NewMGPreconditioner(s, engine.Multadd)
		defer p.Release()
		opt := DefaultOptions()
		opt.Tol = 1e-9
		opt.MaxIter = 80
		opt.M = p
		res, err := FGMRES(s.Ops[0], b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := solve()
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run("", func(t *testing.T) {
			withWorkers(t, workers)
			got := solve()
			if got.Iterations != ref.Iterations {
				t.Fatalf("workers=%d: %d iterations, want %d", workers, got.Iterations, ref.Iterations)
			}
			for i := range ref.History {
				if got.History[i] != ref.History[i] {
					t.Fatalf("workers=%d: history[%d] = %v, want %v", workers, i, got.History[i], ref.History[i])
				}
			}
		})
	}
}
