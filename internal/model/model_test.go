package model

import (
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
)

func buildSetup(t *testing.T, n int) *engine.Engine {
	t.Helper()
	a := grid.Laplacian27pt(n)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 1
	s, err := engine.New(a, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	bad := []Config{
		{Variant: SemiAsync, Method: engine.Multadd, Alpha: 0, Updates: 5},
		{Variant: SemiAsync, Method: engine.Multadd, Alpha: 1.5, Updates: 5},
		{Variant: SemiAsync, Method: engine.Multadd, Alpha: 0.5, Delta: -1, Updates: 5},
		{Variant: SemiAsync, Method: engine.Multadd, Alpha: 0.5, Updates: 0},
		{Variant: SemiAsync, Method: engine.Mult, Alpha: 0.5, Updates: 5},
	}
	for i, cfg := range bad {
		if _, err := Run(s, b, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	short := make([]float64, 3)
	if _, err := Run(s, short, Config{Variant: SemiAsync, Method: engine.Multadd, Alpha: 0.5, Updates: 5}); err == nil {
		t.Error("accepted wrong-length RHS")
	}
}

func TestSemiAsyncAlphaOneDeltaZeroMatchesSyncMultadd(t *testing.T) {
	// With α = 1 every grid fires at every instant, and with δ = 0 every
	// read is the current iterate: the model must reproduce synchronous
	// Multadd cycle for cycle.
	s := buildSetup(t, 6)
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 2)
	res, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd,
		Alpha: 1, Delta: 0, Updates: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Solve(engine.Multadd, b, 10)
	want := hist[len(hist)-1]
	if math.Abs(res.RelRes-want) > 1e-9*(1+want) {
		t.Errorf("model relres %g, sync Multadd %g", res.RelRes, want)
	}
	if res.Instants != 10 {
		t.Errorf("instants = %d, want 10", res.Instants)
	}
	for k, c := range res.Corrections {
		if c != 10 {
			t.Errorf("grid %d corrections = %d, want 10", k, c)
		}
	}
}

func TestSemiAsyncAlphaOneAFACxMatchesSync(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 4)
	res, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.AFACx,
		Alpha: 1, Delta: 0, Updates: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Solve(engine.AFACx, b, 8)
	want := hist[len(hist)-1]
	if math.Abs(res.RelRes-want) > 1e-9*(1+want) {
		t.Errorf("model relres %g, sync AFACx %g", res.RelRes, want)
	}
}

func TestFullAsyncDeltaZeroAlphaOneMatchesSync(t *testing.T) {
	// δ = 0 forces every per-component read to the current instant, so
	// both full-async variants collapse to the synchronous method.
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 5)
	_, hist := s.Solve(engine.Multadd, b, 6)
	want := hist[len(hist)-1]
	for _, v := range []Variant{FullAsyncSolution, FullAsyncResidual} {
		res, err := Run(s, b, Config{
			Variant: v, Method: engine.Multadd,
			Alpha: 1, Delta: 0, Updates: 6, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.RelRes-want) > 1e-9*(1+want) {
			t.Errorf("%v: relres %g, want %g", v, res.RelRes, want)
		}
	}
}

func TestSemiAsyncConvergesWithSmallAlpha(t *testing.T) {
	// Figure 1's headline: even with a small minimum update probability,
	// the async model still converges substantially in 20 updates.
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 6)
	res, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd,
		Alpha: 0.1, Delta: 0, Updates: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelRes > 1e-3 {
		t.Errorf("semi-async α=0.1 made little progress: relres %g", res.RelRes)
	}
	for k, c := range res.Corrections {
		if c != 20 {
			t.Errorf("grid %d corrections = %d, want 20", k, c)
		}
	}
}

func TestSmallerAlphaConvergesSlower(t *testing.T) {
	// Figure 1's trend: smaller α (grids more out of sync) gives a larger
	// final residual on average. Use means over several seeds.
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 7)
	mean := func(alpha float64) float64 {
		sum := 0.0
		const runs = 8
		for seed := int64(0); seed < runs; seed++ {
			res, err := Run(s, b, Config{
				Variant: SemiAsync, Method: engine.Multadd,
				Alpha: alpha, Delta: 0, Updates: 12, Seed: 100 + seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Log10(res.RelRes)
		}
		return sum / runs
	}
	lo, hi := mean(0.1), mean(0.9)
	if lo <= hi {
		t.Errorf("α=0.1 mean log-relres %g not worse than α=0.9 %g", lo, hi)
	}
}

func TestLargerDeltaConvergesSlower(t *testing.T) {
	// Figure 2's trend: larger maximum delay gives slower convergence.
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 8)
	mean := func(delta int) float64 {
		sum := 0.0
		const runs = 8
		for seed := int64(0); seed < runs; seed++ {
			res, err := Run(s, b, Config{
				Variant: FullAsyncSolution, Method: engine.Multadd,
				Alpha: 0.5, Delta: delta, Updates: 12, Seed: 200 + seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Log10(res.RelRes)
		}
		return sum / runs
	}
	d0, d8 := mean(0), mean(8)
	if d8 <= d0 {
		t.Errorf("δ=8 mean log-relres %g not worse than δ=0 %g", d8, d0)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 9)
	cfg := Config{Variant: FullAsyncResidual, Method: engine.AFACx, Alpha: 0.3, Delta: 4, Updates: 10, Seed: 77}
	r1, err := Run(s, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RelRes != r2.RelRes || r1.Instants != r2.Instants {
		t.Error("simulation not deterministic under fixed seed")
	}
}

func TestInstantCapHonoured(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 10)
	res, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd,
		Alpha: 0.05, Delta: 0, Updates: 1000, Seed: 1, MaxInstants: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instants > 25 {
		t.Errorf("instants = %d exceeds cap", res.Instants)
	}
}

func TestVariantStrings(t *testing.T) {
	if SemiAsync.String() != "semi-async" ||
		FullAsyncSolution.String() != "full-async-solution" ||
		FullAsyncResidual.String() != "full-async-residual" ||
		Variant(9).String() != "unknown" {
		t.Error("Variant.String broken")
	}
}

func TestRingWindow(t *testing.T) {
	r := newRing(3, 2)
	for inst := 0; inst < 5; inst++ {
		r.push([]float64{float64(inst), float64(10 * inst)})
	}
	// now = 4; window holds instants 2, 3, 4.
	dst := make([]float64, 2)
	r.at(4, 4, dst)
	if dst[0] != 4 {
		t.Errorf("newest = %v", dst[0])
	}
	r.at(2, 4, dst)
	if dst[0] != 2 {
		t.Errorf("oldest in window = %v", dst[0])
	}
	// Out-of-window reads clamp.
	r.at(0, 4, dst)
	if dst[0] != 2 {
		t.Errorf("clamped read = %v, want 2", dst[0])
	}
	r.at(9, 4, dst)
	if dst[0] != 4 {
		t.Errorf("future read clamps to now, got %v", dst[0])
	}
	if r.elem(3, 4, 1) != 30 {
		t.Errorf("elem = %v, want 30", r.elem(3, 4, 1))
	}
}

func TestResidualBasedTracksTrueResidual(t *testing.T) {
	// In the residual-based model the internal recursion r ← r − A·sum must
	// equal the true residual b − A x at every step when δ = 0 (they can
	// only diverge through stale reads). We verify at the end of a run.
	s := buildSetup(t, 6)
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 11)
	res, err := Run(s, b, Config{
		Variant: FullAsyncResidual, Method: engine.Multadd,
		Alpha: 0.7, Delta: 0, Updates: 10, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// RelRes is computed from x directly, so this checks x/r consistency
	// implicitly: it must show convergence, not garbage.
	if res.RelRes > 1e-2 || math.IsNaN(res.RelRes) {
		t.Errorf("residual-based model inconsistent: relres %g", res.RelRes)
	}
}

func TestUnbalancedUpdatesLoseGridIndependence(t *testing.T) {
	// The paper's conclusion: when correction counts are unbalanced (far
	// more from some grids than others), grid-independent convergence is
	// lost. Starve the fine grid relative to the coarse grids and the
	// final residual must be far worse than the balanced run with the same
	// fine-grid budget.
	s := buildSetup(t, 8)
	b := grid.RandomRHS(s.LevelSize(0), 21)
	l := s.NumLevels()
	balanced, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd,
		Alpha: 0.9, Delta: 0, Updates: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	unb := make([]int, l)
	for k := range unb {
		unb[k] = 20
	}
	unb[0] = 2 // fine grid starved
	starved, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd,
		Alpha: 0.9, Delta: 0, Updates: 20, UpdatesPerGrid: unb, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Corrections[0] != 2 {
		t.Fatalf("fine grid did %d corrections, want 2", starved.Corrections[0])
	}
	if starved.RelRes < 50*balanced.RelRes {
		t.Errorf("starving the fine grid barely hurt: %g vs balanced %g",
			starved.RelRes, balanced.RelRes)
	}
}

func TestUpdatesPerGridValidation(t *testing.T) {
	s := buildSetup(t, 6)
	b := grid.RandomRHS(s.LevelSize(0), 22)
	if _, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd, Alpha: 0.5, Updates: 5,
		UpdatesPerGrid: []int{1},
	}); err == nil {
		t.Error("wrong-length UpdatesPerGrid accepted")
	}
	bad := make([]int, s.NumLevels())
	if _, err := Run(s, b, Config{
		Variant: SemiAsync, Method: engine.Multadd, Alpha: 0.5, Updates: 5,
		UpdatesPerGrid: bad,
	}); err == nil {
		t.Error("zero UpdatesPerGrid entry accepted")
	}
}
