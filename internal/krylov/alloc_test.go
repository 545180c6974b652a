package krylov

import (
	"runtime/debug"
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
)

// warmPools is the precondition of the three allocation contracts below:
// they hold with warm scratch pools. sync.Pool drops items at random under
// -race, and a collection landing inside AllocsPerRun empties the pools
// mid-measurement, so skip the first and switch off the second.
func warmPools(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; per-solve alloc counts do not hold")
	}
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// TestPCGSteadyStateAllocFree is the Krylov allocation contract (like the
// engine's): with Options.X and Options.History reused, a warm repeated
// PCG solve allocates nothing — all iteration scratch cycles through the
// package pool and the preconditioner's workspace comes from the setup's
// pool.
func TestPCGSteadyStateAllocFree(t *testing.T) {
	warmPools(t)
	s := buildSetup(t, 8)
	a := s.Ops[0]
	n := a.Rows()
	b := grid.RandomRHS(n, 9)
	p := NewMGPreconditioner(s, engine.Mult)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = 1e-9
	opt.MaxIter = 100
	opt.M = p
	opt.X = make([]float64, n)
	opt.History = make([]float64, 0, opt.MaxIter+1)

	run := func() {
		if _, err := PCG(a, b, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warm PCG solve allocates %.1f times, want 0", allocs)
	}
}

// TestFGMRESSteadyStateAllocFree pins the same contract for FGMRES(m):
// the basis vectors, Hessenberg and rotation scratch all pool.
func TestFGMRESSteadyStateAllocFree(t *testing.T) {
	warmPools(t)
	s := buildSetup(t, 8)
	a := s.Ops[0]
	n := a.Rows()
	b := grid.RandomRHS(n, 10)
	p := NewMGPreconditioner(s, engine.Mult)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = 1e-9
	opt.MaxIter = 60
	opt.Restart = 20
	opt.M = p
	opt.X = make([]float64, n)
	opt.History = make([]float64, 0, opt.MaxIter+1)

	run := func() {
		if _, err := FGMRES(a, b, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warm FGMRES solve allocates %.1f times, want 0", allocs)
	}
}

// TestPlainCGAllocFreeOnOperator: the unpreconditioned iteration path is
// also allocation-free on a reused operator view.
func TestPlainCGAllocFreeOnOperator(t *testing.T) {
	warmPools(t)
	a := op.FromCSR(grid.Laplacian7pt(8))
	n := a.Rows()
	b := grid.RandomRHS(n, 12)
	opt := DefaultOptions()
	opt.MaxIter = 50
	opt.X = make([]float64, n)
	opt.History = make([]float64, 0, opt.MaxIter+1)
	run := func() {
		if _, err := PCG(a, b, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warm plain-CG solve allocates %.1f times, want 0", allocs)
	}
}
