package harness

import (
	"math"
	"testing"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/model"
	"asyncmg/internal/smoother"
)

// These tests encode the paper's qualitative claims — the "shape" of each
// figure — as automated assertions, so a regression that silently broke an
// experiment's conclusion would fail CI rather than just change a number in
// EXPERIMENTS.md. They run scaled-down versions of the experiments.

// TestShapeFig1AlphaOrderingAndSizeIndependence: smaller α converges more
// slowly; the async/sync ratio stays bounded as the problem grows.
func TestShapeFig1AlphaOrderingAndSizeIndependence(t *testing.T) {
	sizes := []int{8, 12}
	const runs = 6
	ratios := map[float64][]float64{}
	alphas := []float64{0.1, 0.9}
	for _, n := range sizes {
		s, err := buildSetup(Problem27pt, n, PaperSetup(Problem27pt, 1, smoother.WJacobi))
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(s.LevelSize(0), 42)
		sync := relResAfter(s, engine.Multadd, b, 20)
		for _, alpha := range alphas {
			sum := 0.0
			for run := 0; run < runs; run++ {
				res, err := model.Run(s, b, model.Config{
					Variant: model.SemiAsync, Method: engine.Multadd,
					Alpha: alpha, Updates: 20, Seed: int64(500 + run),
				})
				if err != nil {
					t.Fatal(err)
				}
				sum += res.RelRes
			}
			ratios[alpha] = append(ratios[alpha], sum/runs/sync)
		}
	}
	// α ordering at every size.
	for i := range sizes {
		if ratios[0.1][i] <= ratios[0.9][i]*0.8 {
			t.Errorf("size %d: alpha=0.1 ratio %v not worse than alpha=0.9 %v",
				sizes[i], ratios[0.1][i], ratios[0.9][i])
		}
	}
	// Grid-size independence: the async/sync ratio must not blow up.
	if ratios[0.1][1] > 4*ratios[0.1][0] {
		t.Errorf("alpha=0.1 async/sync ratio grew from %v to %v with size",
			ratios[0.1][0], ratios[0.1][1])
	}
}

// TestShapeFig2ResidualBasedBeatsSolutionBased at large δ (averaged over
// seeds; the paper's Figure 2 conclusion).
func TestShapeFig2ResidualBasedBeatsSolutionBased(t *testing.T) {
	s, err := buildSetup(Problem27pt, 10, PaperSetup(Problem27pt, 1, smoother.WJacobi))
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(s.LevelSize(0), 42)
	const runs = 10
	mean := func(v model.Variant) float64 {
		sum := 0.0
		for run := 0; run < runs; run++ {
			res, err := model.Run(s, b, model.Config{
				Variant: v, Method: engine.Multadd,
				Alpha: 0.1, Delta: 8, Updates: 20, Seed: int64(900 + run),
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Log(res.RelRes)
		}
		return sum / runs
	}
	sol := mean(model.FullAsyncSolution)
	resid := mean(model.FullAsyncResidual)
	if resid > sol+0.05 {
		t.Errorf("residual-based mean log-relres %v worse than solution-based %v at delta=8",
			resid, sol)
	}
}

// TestShapeFig4LocalResTracksSync: the asynchronous local-res Multadd must
// converge essentially as well as synchronous Multadd at the same cycle
// count (asynchrony is free in convergence), while global-res is allowed to
// be (and typically is) worse.
func TestShapeFig4LocalResTracksSync(t *testing.T) {
	s, err := buildSetup(Problem27pt, 10, PaperSetup(Problem27pt, 1, smoother.WJacobi))
	if err != nil {
		t.Fatal(err)
	}
	p := Protocol{Tau: 1e-9, CycleStep: 10, CycleMax: 100, Runs: 3, Threads: 10, Seed0: 1}
	syncV, d1 := p.MeanRelRes(s, MethodSpec{"", async.Config{Method: engine.Multadd, Sync: true, Write: async.LockWrite}}, 20)
	local, d2 := p.MeanRelRes(s, MethodSpec{"", async.Config{Method: engine.Multadd, Write: async.LockWrite, Res: async.LocalRes}}, 20)
	if d1 || d2 {
		t.Fatal("unexpected divergence")
	}
	if local > 3*syncV {
		t.Errorf("async local-res relres %g much worse than sync %g", local, syncV)
	}
}

// TestShapeFig4AsyncGSBeatsJacobi: the async GS smoother needs fewer
// cycles than ω-Jacobi — the paper's headline smoother claim, per V-cycle
// residual version.
func TestShapeFig4AsyncGSBeatsJacobi(t *testing.T) {
	p := Protocol{Tau: 1e-9, CycleStep: 10, CycleMax: 100, Runs: 3, Threads: 10, Seed0: 1}
	spec := MethodSpec{"", async.Config{Method: engine.Multadd, Write: async.LockWrite, Res: async.LocalRes}}
	var vals []float64
	for _, kind := range []smoother.Kind{smoother.WJacobi, smoother.AsyncGS} {
		s, err := buildSetup(Problem27pt, 10, PaperSetup(Problem27pt, 1, kind))
		if err != nil {
			t.Fatal(err)
		}
		v, div := p.MeanRelRes(s, spec, 20)
		if div {
			t.Fatalf("%v diverged", kind)
		}
		vals = append(vals, v)
	}
	if vals[1] >= vals[0] {
		t.Errorf("async GS relres %g not better than ω-Jacobi %g", vals[1], vals[0])
	}
}

// TestShapeTable1AFACxNeedsMoreCyclesThanMultadd: the paper's consistent
// Table I ordering.
func TestShapeTable1AFACxNeedsMoreCyclesThanMultadd(t *testing.T) {
	s, err := buildSetup(Problem7pt, 8, PaperSetup(Problem7pt, 1, smoother.WJacobi))
	if err != nil {
		t.Fatal(err)
	}
	p := Protocol{Tau: 1e-6, CycleStep: 10, CycleMax: 200, Runs: 2, Threads: 8, Seed0: 1}
	ma := p.TimeToTol(s, MethodSpec{"", async.Config{Method: engine.Multadd, Sync: true, Write: async.LockWrite}})
	af := p.TimeToTol(s, MethodSpec{"", async.Config{Method: engine.AFACx, Sync: true, Write: async.LockWrite}})
	if ma.Diverged || ma.NotConverged || af.Diverged || af.NotConverged {
		t.Fatal("baseline did not converge")
	}
	if af.Cycles < ma.Cycles {
		t.Errorf("AFACx %d cycles < Multadd %d", af.Cycles, ma.Cycles)
	}
}
