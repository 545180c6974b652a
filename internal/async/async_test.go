package async

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

func buildSetup(t *testing.T, n int, kind smoother.Kind) *engine.Engine {
	t.Helper()
	a := grid.Laplacian7pt(n)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 1
	cfg := smoother.Config{Kind: kind, Omega: 0.9, Blocks: 1}
	s, err := engine.New(a, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBarrierReleasesTogether(t *testing.T) {
	const n = 5
	b := NewBarrier(n)
	if b.Size() != n {
		t.Fatalf("Size = %d", b.Size())
	}
	var mu sync.Mutex
	phase := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for p := 0; p < 50; p++ {
				mu.Lock()
				phase[i] = p
				// No goroutine may be more than one phase ahead.
				for j := 0; j < n; j++ {
					if phase[j] < p-1 || phase[j] > p+1 {
						t.Errorf("phase skew: %v", phase)
					}
				}
				mu.Unlock()
				b.Wait()
			}
		}(i)
	}
	wg.Wait()
}

func TestBarrierSizeOneNoop(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 3; i++ {
		b.Wait() // must not block
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestSolveValidation(t *testing.T) {
	s := buildSetup(t, 6, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, Threads: 4, MaxCycles: 0}); err == nil {
		t.Error("accepted MaxCycles=0")
	}
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, Threads: 0, MaxCycles: 5}); err == nil {
		t.Error("accepted Threads=0")
	}
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, Threads: 1, MaxCycles: 5}); err == nil {
		t.Error("accepted fewer threads than grids")
	}
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.BPX, Threads: 8, MaxCycles: 5}); err == nil {
		t.Error("accepted unsupported method")
	}
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.AFACx, Res: ResidualRes, Threads: 8, MaxCycles: 5}); err == nil {
		t.Error("accepted residual-based AFACx")
	}
	if _, err := Solve(context.Background(), s, b[:3], Config{Method: engine.Multadd, Threads: 8, MaxCycles: 5}); err == nil {
		t.Error("accepted short RHS")
	}
}

// TestParallelMultMatchesSequential pins the team-synchronous Mult to the
// engine's serial Mult bit for bit: both run the engine's one V-cycle
// body, the team on its sites' Range kernels and barriers, the engine on
// the sharded whole-vector kernels. With one smoother block per thread
// the arithmetic is the same, so the iterates agree in every bit, for
// every diagonal and hybrid smoother and at every team size, on assembled
// and matrix-free hierarchies. Async GS stays out: its atomic in-place
// sweep is a different iteration from the serial block sweep (at one
// thread 788 of the 1 000 entries differ after 12 cycles on 7pt n=10, by
// up to 1.7e-16).
func TestParallelMultMatchesSequential(t *testing.T) {
	const cycles = 12
	check := func(t *testing.T, name string, a op.Operator, kind smoother.Kind, threads int) {
		s, err := engine.NewOperator(a, amg.DefaultOptions(), smoother.Config{Kind: kind, Omega: 0.9, Blocks: threads})
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(s.LevelSize(0), 2)
		res, err := Solve(context.Background(), s, b, Config{Method: engine.Mult, Threads: threads, MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		x, hist := s.Solve(engine.Mult, b, cycles)
		diff := 0
		for i := range x {
			if math.Float64bits(res.X[i]) != math.Float64bits(x[i]) {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("%s %v threads=%d: %d of %d entries differ from the serial Mult", name, kind, threads, diff, len(x))
		}
		if want := hist[len(hist)-1]; res.RelRes != want {
			t.Errorf("%s %v threads=%d: relres %g, serial %g", name, kind, threads, res.RelRes, want)
		}
		if res.AvgCorrects != cycles {
			t.Errorf("AvgCorrects = %v", res.AvgCorrects)
		}
	}
	for _, kind := range []smoother.Kind{smoother.WJacobi, smoother.L1Jacobi, smoother.HybridJGS, smoother.L1HybridJGS} {
		for threads := 1; threads <= 4; threads++ {
			check(t, "27pt-n10", op.FromCSR(grid.Laplacian27pt(10)), kind, threads)
			check(t, "7pt-n14", op.FromCSR(grid.Laplacian7pt(14)), kind, threads)
		}
	}
	for threads := 1; threads <= 4; threads++ {
		check(t, "stencil7-n16", op.NewStencil7(16), smoother.WJacobi, threads)
	}
}

// TestMultCancelStopsEveryThread cancels team Mult solves before and
// during the run: Solve must return ctx's error, which needs every thread
// to stop at the same cycle (one that stopped alone would leave its
// teammates waiting on the team barrier).
func TestMultCancelStopsEveryThread(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 7)
	for _, threads := range []int{1, 3} {
		for _, after := range []time.Duration{0, 20 * time.Millisecond} {
			ctx, cancel := context.WithCancel(context.Background())
			stop := time.AfterFunc(after, cancel)
			_, err := Solve(ctx, s, b, Config{Method: engine.Mult, Threads: threads, MaxCycles: 1 << 30})
			stop.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("threads=%d cancelled after %v: err = %v, want context.Canceled", threads, after, err)
			}
		}
	}
}

func TestSyncMultaddMatchesSequential(t *testing.T) {
	// Synchronous parallel Multadd must match the sequential Multadd cycle
	// (ω-Jacobi smoothing is independent of the block structure).
	s := buildSetup(t, 8, smoother.WJacobi)
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 3)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Sync: true, Write: AtomicWrite,
		Threads: 6, MaxCycles: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Solve(engine.Multadd, b, 10)
	want := hist[len(hist)-1]
	if math.Abs(res.RelRes-want) > 1e-9*(1+want) {
		t.Errorf("sync parallel Multadd relres %g, sequential %g", res.RelRes, want)
	}
}

func TestSyncAFACxMatchesSequential(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 4)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.AFACx, Sync: true, Write: LockWrite,
		Threads: 6, MaxCycles: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Solve(engine.AFACx, b, 10)
	want := hist[len(hist)-1]
	if math.Abs(res.RelRes-want) > 1e-9*(1+want) {
		t.Errorf("sync parallel AFACx relres %g, sequential %g", res.RelRes, want)
	}
}

func TestAsyncMultaddConvergesAllVariants(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 5)
	for _, wm := range []WriteMode{LockWrite, AtomicWrite} {
		for _, rm := range []ResMode{LocalRes, GlobalRes, ResidualRes} {
			res, err := Solve(context.Background(), s, b, Config{
				Method: engine.Multadd, Write: wm, Res: rm,
				Criterion: Criterion1, Threads: 7, MaxCycles: 40,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", wm, rm, err)
			}
			if res.Diverged {
				t.Errorf("%v/%v diverged", wm, rm)
				continue
			}
			// Global-res convergence is scheduling-sensitive (stale residual
			// slabs); hold it to a looser bar than the local modes.
			bar := 1e-4
			if rm == GlobalRes {
				bar = 1e-2
			}
			if res.RelRes > bar {
				t.Errorf("%v/%v: relres %g after 40 corrections", wm, rm, res.RelRes)
			}
			for k, c := range res.Corrections {
				if c != 40 {
					t.Errorf("%v/%v: grid %d corrections %d, want 40 (criterion 1)", wm, rm, k, c)
				}
			}
		}
	}
}

func TestAsyncAFACxConverges(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 6)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.AFACx, Write: LockWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 7, MaxCycles: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("async AFACx relres %g (diverged=%v)", res.RelRes, res.Diverged)
	}
}

func TestAsyncGSSmootherConverges(t *testing.T) {
	s := buildSetup(t, 8, smoother.AsyncGS)
	b := grid.RandomRHS(s.LevelSize(0), 7)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 7, MaxCycles: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("async GS Multadd relres %g", res.RelRes)
	}
}

func TestHybridJGSSmootherConverges(t *testing.T) {
	s := buildSetup(t, 8, smoother.HybridJGS)
	b := grid.RandomRHS(s.LevelSize(0), 8)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: LockWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 7, MaxCycles: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("hybrid JGS Multadd relres %g", res.RelRes)
	}
}

func TestCriterion2AllGridsReachTarget(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 9)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion2, Threads: 7, MaxCycles: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range res.Corrections {
		if c < 15 {
			t.Errorf("grid %d stopped at %d < 15 corrections under criterion 2", k, c)
		}
	}
	if res.AvgCorrects < 15 {
		t.Errorf("AvgCorrects %v < MaxCycles", res.AvgCorrects)
	}
}

func TestParallelMultAllSmoothers(t *testing.T) {
	for _, kind := range []smoother.Kind{smoother.WJacobi, smoother.L1Jacobi, smoother.HybridJGS, smoother.AsyncGS} {
		s := buildSetup(t, 6, kind)
		b := grid.RandomRHS(s.LevelSize(0), 10)
		res, err := Solve(context.Background(), s, b, Config{Method: engine.Mult, Threads: 4, MaxCycles: 40})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Diverged || res.RelRes > 1e-6 {
			t.Errorf("%v: Mult relres %g", kind, res.RelRes)
		}
	}
}

func TestPaceHoldsLeaderUntilSlowestGridCatchesUp(t *testing.T) {
	rt := &solverState{ctx: context.Background(), corrCount: make([]atomic.Int64, 3)}
	g := &gridRun{rt: rt}
	rt.corrCount[0].Store(maxLead)
	rt.corrCount[1].Store(maxLead)
	// Grid 2 has done nothing: a grid within maxLead of it goes on.
	if g.pace(maxLead - 1) {
		t.Fatal("pace stopped a grid within the lead bound")
	}
	done := make(chan bool)
	go func() { done <- g.pace(maxLead) }()
	select {
	case <-done:
		t.Fatal("pace let a grid run maxLead corrections ahead")
	case <-time.After(20 * time.Millisecond):
	}
	rt.corrCount[2].Store(1)
	if <-done {
		t.Fatal("pace reported a stop once the slowest grid advanced")
	}
	// A held grid leaves on cancellation and reports the stop.
	ctx, cancel := context.WithCancel(context.Background())
	rt.ctx = ctx
	go func() { done <- g.pace(maxLead + 1) }()
	cancel()
	if !<-done {
		t.Fatal("pace did not report the stop after cancellation")
	}
}

func TestSingleThreadPerGridStillWorks(t *testing.T) {
	// Exactly one thread per grid: degenerate teams, barriers are no-ops.
	s := buildSetup(t, 8, smoother.WJacobi)
	l := s.NumLevels()
	b := grid.RandomRHS(s.LevelSize(0), 11)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: l, MaxCycles: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-3 {
		t.Errorf("relres %g with one thread per grid", res.RelRes)
	}
}

func TestManyThreads(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 12)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 32, MaxCycles: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-3 {
		t.Errorf("relres %g with 32 threads", res.RelRes)
	}
}

func TestResultElapsedPositive(t *testing.T) {
	s := buildSetup(t, 6, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 13)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 5, MaxCycles: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
}

func TestModeStrings(t *testing.T) {
	if LockWrite.String() != "lock-write" || AtomicWrite.String() != "atomic-write" {
		t.Error("WriteMode strings")
	}
	if LocalRes.String() != "local-res" || GlobalRes.String() != "global-res" || ResidualRes.String() != "residual-res" {
		t.Error("ResMode strings")
	}
	if Criterion1.String() != "criterion-1" || Criterion2.String() != "criterion-2" {
		t.Error("Criterion strings")
	}
}

func TestGridWorkDecreasesWithLevelForStencil(t *testing.T) {
	// Coarser grids have (much) smaller operators; the restriction chain
	// grows but is dominated by the fine-level work. Work estimates should
	// give the fine grid the largest share.
	s := buildSetup(t, 8, smoother.WJacobi)
	cfg := Config{Method: engine.Multadd, Res: LocalRes}
	w0 := gridWork(s, cfg, 0)
	wl := gridWork(s, cfg, s.NumLevels()-1)
	if w0 <= 0 || wl <= 0 {
		t.Fatal("non-positive work estimate")
	}
}

func TestAsyncAFACxAllSmoothers(t *testing.T) {
	// Every smoother family must drive the async AFACx solver without
	// divergence on the 7pt problem (the paper's ℓ1 AFACx divergence shows
	// up on deeper hierarchies/harder problems; here we check mechanics).
	for _, kind := range []smoother.Kind{
		smoother.WJacobi, smoother.HybridJGS, smoother.AsyncGS, smoother.L1HybridJGS,
	} {
		s := buildSetup(t, 8, kind)
		b := grid.RandomRHS(s.LevelSize(0), 14)
		res, err := Solve(context.Background(), s, b, Config{
			Method: engine.AFACx, Write: AtomicWrite, Res: LocalRes,
			Criterion: Criterion1, Threads: 7, MaxCycles: 60,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Diverged {
			t.Errorf("%v: diverged", kind)
		}
		if res.RelRes > 1e-2 {
			t.Errorf("%v: relres %g", kind, res.RelRes)
		}
	}
}

func TestCriterion1FinishedGridsLeaveOthersRunning(t *testing.T) {
	// With criterion 1 and global-res, grids that finish stop refreshing
	// their slab of the global residual; the remaining grids must still
	// terminate (no deadlock) and the result must be finite.
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 15)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: GlobalRes,
		Criterion: Criterion1, Threads: 7, MaxCycles: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range res.Corrections {
		if c != 25 {
			t.Errorf("grid %d corrections %d, want 25", k, c)
		}
	}
	if res.Diverged {
		t.Error("diverged")
	}
}

func TestElasticityUnknownApproachAsyncPipeline(t *testing.T) {
	// Full pipeline: FEM elasticity assembly -> unknown-approach AMG ->
	// async Multadd. The run must converge meaningfully within the budget.
	if testing.Short() {
		t.Skip("integration test")
	}
	m := fem.BeamMesh(2)
	prob, err := fem.AssembleElasticity(m, fem.DefaultBeamMaterials())
	if err != nil {
		t.Fatal(err)
	}
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	opt.NumFunctions = 3
	setup, err := engine.New(prob.A, opt, smoother.Config{Kind: smoother.AsyncGS, Omega: 0.5, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(prob.A.Rows, 16)
	res, err := Solve(context.Background(), setup, b, Config{
		Method: engine.Multadd, Write: LockWrite, Res: LocalRes,
		Criterion: Criterion2, Threads: 8, MaxCycles: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-2 {
		t.Errorf("elasticity async pipeline: relres %g diverged=%v", res.RelRes, res.Diverged)
	}
}

func TestRecordHistorySyncRun(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 17)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Sync: true, Write: AtomicWrite,
		Threads: 6, MaxCycles: 10, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 11 {
		t.Fatalf("history length %d, want 11", len(res.History))
	}
	if res.History[0] != 1 {
		t.Errorf("History[0] = %v, want 1", res.History[0])
	}
	// Monotone-ish decrease and final entry consistent with RelRes.
	if res.History[10] > res.History[1] {
		t.Errorf("history not decreasing: %v", res.History)
	}
	if math.Abs(res.History[10]-res.RelRes) > 1e-9*(1+res.RelRes) {
		t.Errorf("final history %g != RelRes %g", res.History[10], res.RelRes)
	}
	// History matches the sequential cycle trajectory.
	_, hist := s.Solve(engine.Multadd, b, 10)
	for i := range hist {
		if math.Abs(res.History[i]-hist[i]) > 1e-9*(1+hist[i]) {
			t.Fatalf("history[%d] = %g, sequential %g", i, res.History[i], hist[i])
		}
	}
}

func TestRecordHistoryIgnoredForAsync(t *testing.T) {
	s := buildSetup(t, 6, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 18)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Write: AtomicWrite, Res: LocalRes,
		Criterion: Criterion1, Threads: 5, MaxCycles: 5, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History != nil {
		t.Error("async run produced a history — norms must not be computed mid-flight")
	}
}
