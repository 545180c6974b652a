package distmem

import (
	"context"
	"errors"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/fault"
	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

func TestActionableTable(t *testing.T) {
	const maxCorr = 10
	cases := []struct {
		name   string
		counts []int
		k, it  int
		lead   int
		want   bool
	}{
		{"own correction not yet applied", []int{2, 3}, 0, 3, 2, false},
		{"own correction applied, others close", []int{3, 3}, 0, 3, 2, true},
		{"too far ahead of a slow grid", []int{5, 2}, 0, 5, 2, false},
		{"exactly at the lead bound", []int{4, 2}, 0, 4, 2, true},
		{"one past the lead bound", []int{5, 2, 9}, 0, 5, 2, false},
		{"unbounded lead ignores laggards", []int{9, 0}, 0, 9, -1, true},
		{"unbounded lead still needs own count", []int{8, 0}, 0, 9, -1, false},
		{"finished grid does not bound the lead", []int{7, maxCorr}, 0, 7, 2, true},
		{"retired grid (reported at maxCorr) ignored", []int{7, maxCorr, 7}, 0, 7, 2, true},
		{"worker at the maxCorr boundary", []int{maxCorr - 1, maxCorr - 1}, 0, maxCorr - 1, 2, true},
		{"all others finished, far ahead is fine", []int{3, maxCorr, maxCorr}, 0, 3, 1, true},
		{"lead 1 is near-lockstep", []int{2, 1}, 0, 2, 1, true},
		{"lead 1 blocks two ahead", []int{3, 1}, 0, 3, 1, false},
		{"nonzero grid index within the lead", []int{4, 5}, 1, 5, 2, true},
		{"nonzero grid index past the lead", []int{0, 5}, 1, 5, 2, false},
	}
	for _, c := range cases {
		if got := actionable(c.counts, c.k, c.it, maxCorr, c.lead); got != c.want {
			t.Errorf("%s: actionable(%v, k=%d, it=%d, lead=%d) = %v, want %v",
				c.name, c.counts, c.k, c.it, c.lead, got, c.want)
		}
	}
}

// fastRecovery returns recovery settings tuned for test speed.
func fastRecovery(cfg Config) Config {
	cfg.WatchdogTimeout = 5 * time.Millisecond
	return cfg
}

func TestDropsAndCrashStillConverge(t *testing.T) {
	// The headline robustness claim: with 20% message loss and a worker
	// crash mid-solve, the watchdog + respawn machinery still drives the
	// 7-point Poisson problem to 1e-6.
	s := buildSetup(t, 8)
	b := grid7ptRHS(t, s, 21)
	res, err := Solve(context.Background(), s, b, fastRecovery(Config{
		Method:         engine.Multadd,
		MaxCorrections: 60,
		Fault: fault.Config{
			Seed:     1,
			DropRate: 0.20,
			CrashAt:  map[int]int{1: 7}, // grid 1's worker dies before its 8th correction
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == vec.Diverged {
		t.Fatal("diverged under faults")
	}
	if res.RelRes > 1e-6 {
		t.Errorf("relres %g under 20%% drops + crash, want <= 1e-6", res.RelRes)
	}
	if res.Drops == 0 {
		t.Error("no drops recorded at 20% drop rate")
	}
	if res.Crashes != 1 {
		t.Errorf("Crashes = %d, want exactly the scheduled 1", res.Crashes)
	}
	if res.Respawns == 0 {
		t.Error("crashed worker was never respawned")
	}
	if res.WatchdogFires == 0 {
		t.Error("recovery happened without the watchdog firing?")
	}
	if len(res.RetiredGrids) != 0 {
		t.Errorf("healthy grids were retired: %v", res.RetiredGrids)
	}
	for k, c := range res.Corrections {
		if c != 60 {
			t.Errorf("grid %d applied %d corrections, want the full 60", k, c)
		}
	}
}

func TestSeededFaultScheduleIsStable(t *testing.T) {
	// The crash schedule is exact and the loss schedule is a deterministic
	// function of the seed: across repeated runs the scheduled crash fires
	// exactly once and the solve always recovers to the same tolerance.
	s := buildSetup(t, 6)
	b := grid7ptRHS(t, s, 5)
	for run := 0; run < 3; run++ {
		res, err := Solve(context.Background(), s, b, fastRecovery(Config{
			Method:         engine.Multadd,
			MaxCorrections: 40,
			Fault: fault.Config{
				Seed:     7,
				DropRate: 0.15,
				CrashAt:  map[int]int{0: 3},
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 1 {
			t.Errorf("run %d: Crashes = %d, want 1", run, res.Crashes)
		}
		if res.Verdict == vec.Diverged || res.RelRes > 1e-4 {
			t.Errorf("run %d: relres %g (verdict %v)", run, res.RelRes, res.Verdict)
		}
	}
}

func TestDeadCoarseGridDegradesGracefully(t *testing.T) {
	// A permanently dead grid must be retired, not waited on forever: the
	// solve finishes, reports the retirement, and the surviving grids
	// still reduce the residual (better than no solve at all).
	s := buildSetup(t, 8)
	dead := s.NumLevels() - 1 // kill the coarsest grid
	b := grid7ptRHS(t, s, 22)
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Solve(context.Background(), s, b, fastRecovery(Config{
			Method:         engine.Multadd,
			MaxCorrections: 30,
			RetireAfter:    3,
			Fault:          fault.Config{Seed: 2, DeadGrids: []int{dead}},
		}))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("solve with a dead grid never finished")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RetiredGrids) != 1 || res.RetiredGrids[0] != dead {
		t.Fatalf("RetiredGrids = %v, want [%d]", res.RetiredGrids, dead)
	}
	if res.Corrections[dead] != 0 {
		t.Errorf("dead grid applied %d corrections", res.Corrections[dead])
	}
	if res.Verdict == vec.Diverged {
		t.Fatal("diverged with a dead coarse grid")
	}
	if res.RelRes >= 1 {
		t.Errorf("relres %g with dead coarse grid — no better than not solving", res.RelRes)
	}
	// The surviving grids must have used their full budget.
	for k, c := range res.Corrections {
		if k != dead && c != 30 {
			t.Errorf("surviving grid %d applied %d corrections, want 30", k, c)
		}
	}
}

func TestDeadlineInsteadOfHang(t *testing.T) {
	// With every message dropped and retirement effectively disabled, the
	// solve can make no progress; the context deadline must surface as an
	// error instead of a hang.
	s := buildSetup(t, 6)
	b := grid7ptRHS(t, s, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, s, b, Config{
		Method:          engine.Multadd,
		MaxCorrections:  10,
		WatchdogTimeout: 20 * time.Millisecond,
		RetireAfter:     1 << 30, // never retire: force the deadline path
		Fault:           fault.Config{Seed: 3, DropRate: 1.0},
	})
	if err == nil {
		t.Fatalf("expected a deadline error, got result %+v", res)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Solve took %v to honour a 300ms deadline", elapsed)
	}
}

func TestCancelBeforeStart(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid7ptRHS(t, s, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, s, b, Config{Method: engine.Multadd, MaxCorrections: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestDivergenceMonitorRollsBack(t *testing.T) {
	// A diverging smoother weight (ω-Jacobi at ω = 2, the edge of its
	// range, amplifies the highest frequencies up to threefold per
	// sweep) pushes the owner's residual
	// past vec.DivergedRelRes within the budget: the monitor must roll
	// back, and the solve must still terminate (budget consumed) with a
	// finite iterate whose residual the monitor kept below the threshold,
	// rather than hanging or returning garbage.
	a := grid.Laplacian7pt(6)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 1
	s, err := engine.New(a, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 2, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := grid7ptRHS(t, s, 8)
	res, err := Solve(context.Background(), s, b, fastRecovery(Config{
		Method:         engine.Multadd,
		MaxCorrections: 60,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergenceResets == 0 {
		t.Errorf("divergence monitor never fired (relres %g)", res.RelRes)
	}
	if res.Verdict == vec.Diverged || vec.HasNonFinite(res.X) {
		t.Errorf("rollback left verdict %v, relres %g", res.Verdict, res.RelRes)
	}
}

func TestDuplicatesAreDeduplicated(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid7ptRHS(t, s, 9)
	res, err := Solve(context.Background(), s, b, fastRecovery(Config{
		Method:         engine.Multadd,
		MaxCorrections: 40,
		Fault:          fault.Config{Seed: 11, DupRate: 0.5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates == 0 {
		t.Error("no duplicates injected at 50% dup rate")
	}
	if res.Discarded == 0 {
		t.Error("duplicated corrections were not deduplicated")
	}
	if res.Verdict == vec.Diverged || res.RelRes > 1e-5 {
		t.Errorf("relres %g under duplication (verdict %v)", res.RelRes, res.Verdict)
	}
	for k, c := range res.Corrections {
		if c != 40 {
			t.Errorf("grid %d applied %d corrections, want exactly 40 despite duplicates", k, c)
		}
	}
}

func TestReorderingDelaysStillConverge(t *testing.T) {
	s := buildSetup(t, 8)
	b := grid7ptRHS(t, s, 10)
	res, err := Solve(context.Background(), s, b, fastRecovery(Config{
		Method:         engine.Multadd,
		MaxCorrections: 40,
		Fault: fault.Config{
			Seed:       13,
			DelayRate:  0.3,
			BaseDelay:  50 * time.Microsecond,
			ExtraDelay: 2 * time.Millisecond,
			Straggler:  map[int]time.Duration{0: 200 * time.Microsecond},
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayedMsgs == 0 {
		t.Error("no messages were reorder-delayed at 30% delay rate")
	}
	if res.Verdict == vec.Diverged || res.RelRes > 1e-2 {
		t.Errorf("relres %g under reordering (verdict %v)", res.RelRes, res.Verdict)
	}
}

// grid7ptRHS builds a reproducible random right-hand side for a setup.
func grid7ptRHS(t *testing.T, s *engine.Engine, seed int64) []float64 {
	t.Helper()
	return grid.RandomRHS(s.LevelSize(0), seed)
}
