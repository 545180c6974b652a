package distmem

import (
	"context"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/smoother"
)

func buildSetup(t *testing.T, n int) *engine.Engine {
	t.Helper()
	a := grid.Laplacian7pt(n)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 1
	s, err := engine.New(a, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidation(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.Mult, MaxCorrections: 5}); err == nil {
		t.Error("Mult accepted")
	}
	if _, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 0}); err == nil {
		t.Error("zero corrections accepted")
	}
	if _, err := Solve(context.Background(), s, b[:2], Config{Method: engine.Multadd, MaxCorrections: 5}); err == nil {
		t.Error("short RHS accepted")
	}
}

func TestDistributedMultaddConverges(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 2)
	res, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged")
	}
	if res.RelRes > 1e-5 {
		t.Errorf("relres %g after 40 corrections per grid", res.RelRes)
	}
	for k, c := range res.Corrections {
		if c != 40 {
			t.Errorf("grid %d corrections %d, want 40", k, c)
		}
	}
	if res.ResidualBroadcasts == 0 {
		t.Error("no residual broadcasts counted")
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestDistributedAFACxConverges(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	res, err := Solve(context.Background(), s, b, Config{Method: engine.AFACx, MaxCorrections: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("AFACx relres %g (diverged=%v)", res.RelRes, res.Diverged)
	}
}

func TestLatencySlowsButConverges(t *testing.T) {
	// With injected interconnect latency, workers act on staler residuals;
	// convergence must survive (the paper's bounded-delay claim carried to
	// message passing).
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 4)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, MaxCorrections: 40, Latency: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged under latency")
	}
	if res.RelRes > 1e-2 {
		t.Errorf("relres %g under latency — asynchrony destroyed convergence", res.RelRes)
	}
}

func TestBroadcastCadence(t *testing.T) {
	// A sparser broadcast cadence must not deadlock and must still
	// converge (possibly slower).
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 5)
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Solve(context.Background(), s, b, Config{
			Method: engine.Multadd, MaxCorrections: 30, BroadcastEvery: 4,
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock with BroadcastEvery > 1")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-2 {
		t.Errorf("relres %g with sparse broadcasts", res.RelRes)
	}
}

func TestStaleDropsObservedUnderPressure(t *testing.T) {
	// With frequent broadcasts and slow workers relative to the owner,
	// some snapshots must be overwritten before being read. Not strictly
	// guaranteed by the scheduler, so only log when zero.
	s := buildSetup(t, 10)
	b := grid.RandomRHS(s.LevelSize(0), 6)
	res, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleDrops == 0 {
		t.Log("no stale snapshot drops observed this run (scheduler-dependent)")
	}
}

func TestDistributedMatchesSharedMemoryQuality(t *testing.T) {
	// The distributed global-res/residual-based solver should converge in
	// the same ballpark as the shared-memory r-Multadd with the same
	// correction budget — within two orders of magnitude (asynchrony makes
	// the comparison noisy).
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 7)
	dist, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 30})
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Solve(engine.Multadd, b, 30)
	sync := hist[len(hist)-1]
	if dist.RelRes > sync*1e4 {
		t.Errorf("distributed relres %g far worse than sequential %g", dist.RelRes, sync)
	}
}

func TestUnbalancedCorrectionsHurtConvergence(t *testing.T) {
	// The paper's conclusion: "if the number of corrections is not
	// balanced (e.g., far more corrections from some grids compared to
	// others), then grid-independent convergence is lost." With unbounded
	// lead on one core, the cheap coarse grid fires all its corrections
	// before the fine grid starts, and the solve degrades dramatically
	// compared to the balanced (bounded-lead) run.
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 8)
	balanced, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 30})
	if err != nil {
		t.Fatal(err)
	}
	unbalanced, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 30, MaxLead: -1})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.RelRes > 1e-4 {
		t.Errorf("balanced run too slow: %g", balanced.RelRes)
	}
	if unbalanced.RelRes < 100*balanced.RelRes {
		t.Logf("note: unbalanced run (%g) not clearly worse than balanced (%g) this time",
			unbalanced.RelRes, balanced.RelRes)
	}
}

func TestMaxLeadOneIsNearLockstep(t *testing.T) {
	// MaxLead 1 forces grids to advance nearly in lockstep — convergence
	// should be at least as good as the default.
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 9)
	res, err := Solve(context.Background(), s, b, Config{Method: engine.Multadd, MaxCorrections: 30, MaxLead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("lockstep-ish run relres %g", res.RelRes)
	}
}

// TestCorrectionPayloadCounters checks the message-volume instrumentation:
// every correction arriving at the owner adds its nonzero payload to the
// per-grid distmem_sent_nnz_total counters.
func TestCorrectionPayloadCounters(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	o := obs.New(s.NumLevels())
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, MaxCorrections: 10, Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := o.SentNNZ.Snapshot(nil)
	for k := 0; k < s.NumLevels(); k++ {
		if res.Corrections[k] > 0 && sent[k] == 0 {
			t.Errorf("grid %d applied %d corrections but sent-nnz counter is 0", k, res.Corrections[k])
		}
		// A dense correction payload is bounded by grid size times the
		// messages that arrived (applies plus discards).
		max := int64(s.LevelSize(0)) * int64(res.Corrections[k]+res.Discarded)
		if sent[k] > max {
			t.Errorf("grid %d sent nnz %d exceeds payload bound %d", k, sent[k], max)
		}
	}
}
