package krylov

import (
	"runtime/debug"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

// warmPools is the precondition of the allocation contracts below:
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

// allocCase is one multigrid-preconditioned Krylov configuration whose
// warm repeated solve must not allocate.
type allocCase struct {
	name    string
	s       *engine.Engine
	m       engine.Method
	tol     float64
	maxIter int
}

func allocCases(t *testing.T) []allocCase {
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	mf, err := engine.NewOperator(op.NewStencil7(16), opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []allocCase{
		{"7pt-csr/mult", buildSetup(t, 8), engine.Mult, 1e-9, 100},
		// The benchmark's lib-pcg-mf configuration at a test size:
		// matrix-free Stencil7 fine level, float32 coarse levels, one
		// Multadd cycle per iteration, 1e-8 within 500 iterations.
		{"stencil7-f32coarse/multadd", mf, engine.Multadd, 1e-8, 500},
	}
}

// assertWarmSolveAllocFree is the Krylov allocation contract (like the
// engine's): with Options.X and Options.History reused, a warm repeated
// solve allocates nothing — all iteration scratch cycles through the
// package pool and the preconditioner's workspace comes from the setup's
// pool.
func assertWarmSolveAllocFree(t *testing.T, solver string, solve func(op.Operator, []float64, Options) (Result, error)) {
	t.Helper()
	for _, c := range allocCases(t) {
		a := c.s.Ops[0]
		n := a.Rows()
		b := grid.RandomRHS(n, 9)
		p := NewMGPreconditioner(c.s, c.m)
		opt := DefaultOptions()
		opt.Tol, opt.MaxIter, opt.Restart, opt.M = c.tol, c.maxIter, 20, p
		opt.X = make([]float64, n)
		opt.History = make([]float64, 0, opt.MaxIter+1)
		run := func() {
			if _, err := solve(a, b, opt); err != nil {
				t.Fatalf("%s %s: %v", solver, c.name, err)
			}
		}
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("warm %s solve on %s allocates %.1f times, want 0", solver, c.name, allocs)
		}
		p.Release()
	}
}

func TestPCGSteadyStateAllocFree(t *testing.T) {
	warmPools(t)
	assertWarmSolveAllocFree(t, "PCG", PCG)
}

// TestFGMRESSteadyStateAllocFree pins the same contract for FGMRES(m):
// the basis vectors, Hessenberg and rotation scratch all pool.
func TestFGMRESSteadyStateAllocFree(t *testing.T) {
	warmPools(t)
	assertWarmSolveAllocFree(t, "FGMRES", FGMRES)
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
