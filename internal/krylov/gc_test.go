//go:build !race

package krylov

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
)

// TestWarmSolvesAllocNothingAfterGC: the reused state of a warm solve
// lives in free lists the program keeps, so a collection before the call
// costs it nothing. At GOMAXPROCS 2 with two workers, on the matrix-free
// 7pt n = 40 hierarchy with float32 coarse levels (above the par
// threshold, so every kernel shards), each call after runtime.GC()
// allocates under 1 KiB in at most 6 objects: a warm PCG and FGMRES with
// a prebuilt preconditioner and reused X and History, Engine.Solve beyond
// the x and history it returns, and Engine.RelRes. The slack is the
// runtime's: it refills its channel-wait records (96 B each) after a GC
// and re-arms a scavenger timer, 0-3 objects per call and 5 at most in
// about 3 000 calls; a sync.Pool's refills were 7-65. Four concurrent
// warm PCG solves on one engine allocate less than one n-vector per
// round. MemStats deltas, not AllocsPerRun, which pins GOMAXPROCS to 1;
// not under the race detector, whose runtime allocates on its own.
func TestWarmSolvesAllocNothingAfterGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	par.SetWorkers(2)
	t.Cleanup(func() { par.SetWorkers(0) })
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	s, err := engine.NewOperator(op.NewStencil7(40), opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := s.Ops[0]
	n := a.Rows()
	b := grid.RandomRHS(n, 9)
	// afterGC runs f after a collection and returns the bytes and objects
	// it allocated. A run during which the runtime started an OS thread
	// is taken again (up to three times): the records of a new thread,
	// about 5 KiB in 6 objects, are the runtime's, made once per thread.
	threads := pprof.Lookup("threadcreate")
	afterGC := func(f func()) (bytes, objects uint64) {
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			started := threads.Count()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			if threads.Count() == started || try == 3 {
				return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
			}
		}
	}
	const rounds, slackBytes, slackObjects = 4, 1024, 6
	check := func(name string, f func(), extraBytes, extraObjects uint64) {
		f() // warm
		for i := 0; i < rounds; i++ {
			if by, ob := afterGC(f); by >= extraBytes+slackBytes || ob > extraObjects+slackObjects {
				t.Errorf("%s after a GC, round %d: %d B in %d objects, want < %d B in <= %d", name, i, by, ob, extraBytes+slackBytes, extraObjects+slackObjects)
			}
		}
	}
	krylovOpt := func(p Preconditioner) Options {
		o := DefaultOptions()
		o.Tol, o.MaxIter, o.Restart, o.M = 1e-8, 500, 20, p
		o.X = make([]float64, n)
		o.History = make([]float64, 0, o.MaxIter+1)
		return o
	}
	solver := func(name string, solve func(op.Operator, []float64, Options) (Result, error)) func() {
		o := krylovOpt(NewMGPreconditioner(s, engine.Multadd))
		return func() {
			if _, err := solve(a, b, o); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	check("PCG", solver("PCG", PCG), 0, 0)
	check("FGMRES", solver("FGMRES", func(a op.Operator, b []float64, o Options) (Result, error) {
		return FGMRESCtx(context.Background(), a, b, o)
	}), 0, 0)
	const tmax = 8
	var x []float64
	// x is a large object, which the runtime rounds up to 8 KiB pages.
	xBytes := uint64(8*n+8191) &^ 8191
	check("Engine.Solve", func() { x, _ = s.Solve(engine.Multadd, b, tmax) }, xBytes+8*(tmax+1), 2)
	check("Engine.RelRes", func() { s.RelRes(b, x) }, 0, 0)

	const solvers = 4
	concurrent := make([]func(), solvers)
	for g := range concurrent {
		concurrent[g] = solver("concurrent PCG", PCG)
	}
	round := func() {
		var wg sync.WaitGroup
		for _, f := range concurrent {
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		wg.Wait()
	}
	round() // warm: one scratch per concurrent solve
	for i := 0; i < rounds; i++ {
		if by, _ := afterGC(round); by >= uint64(8*n) {
			t.Errorf("%d concurrent PCG solves after a GC, round %d: %d B, want < %d (one n-vector)", solvers, i, by, 8*n)
		}
	}
}
