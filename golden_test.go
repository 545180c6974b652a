package asyncmg_test

import (
	"fmt"
	"math"
	"testing"

	"asyncmg"
	"asyncmg/internal/problem"
)

// The histories below were recorded on the pre-engine implementation (the
// per-package cycle and correction code that commit replaced) at %.17g, so
// they pin the refactor to the seed semantics: the shared engine, its fused
// kernels, and the Site-based correction must reproduce the same arithmetic.
// The comparison tolerance of 1e-12 (relative) leaves room only for
// rounding-level reassociation; any structural change to the cycle math
// shows up as a many-orders-of-magnitude violation.
const goldenRelTol = 1e-12

type goldenProblem struct {
	name    string
	build   func() *asyncmg.Matrix
	rhsSeed int64
	// sizes pins the AMG hierarchy the goldens were recorded on.
	sizes []int
	// sync histories, 8 cycles each (index 0 is 1.0).
	mult, multadd, afacx []float64
	// sync team solver histories (async.Solve with Sync, one thread/grid).
	asyncMultadd, asyncAFACx []float64
	// model final relative residuals (α=1, δ=0, Updates 8, Seed 3).
	modelSemiMultadd, modelFullAFACx float64
}

var goldens = []goldenProblem{
	{
		name:    "27pt-n10",
		build:   func() *asyncmg.Matrix { return asyncmg.Laplacian27pt(10) },
		rhsSeed: 42,
		sizes:   []int{1000, 17},
		mult: []float64{1, 0.071723854007433446, 0.025068294971635839, 0.011451505873023952,
			0.0057629315119673971, 0.003006812014526562, 0.001593054805810504,
			0.00085068524844800002, 0.00045648545084044681},
		multadd: []float64{1, 0.16788867303327359, 0.07168466465022022, 0.039642331674346817,
			0.024358561383322375, 0.015910927772835967, 0.010785399596977033,
			0.0074775112457623168, 0.0052564591770559287},
		afacx: []float64{1, 0.16761127540107731, 0.072270002951756188, 0.040504492452352284,
			0.025157008757426474, 0.016618173847920803, 0.01139426574198954,
			0.007990797811297563, 0.0056807826291662526},
		asyncMultadd: []float64{1, 0.16788867303327368, 0.071684664650220262, 0.039642331674346852,
			0.024358561383322371, 0.015910927772835974, 0.010785399596977026,
			0.0074775112457623246, 0.0052564591770559331},
		asyncAFACx: []float64{1, 0.16761127540107748, 0.072270002951756146, 0.040504492452352325,
			0.025157008757426481, 0.016618173847920803, 0.011394265741989533,
			0.0079907978112975734, 0.0056807826291662587},
		modelSemiMultadd: 0.0052564591770559287,
		modelFullAFACx:   0.005680782629166263,
	},
	{
		name:    "7pt-n14",
		build:   func() *asyncmg.Matrix { return asyncmg.Laplacian7pt(14) },
		rhsSeed: 7,
		sizes:   []int{2744, 190, 38},
		mult: []float64{1, 0.19362368330302496, 0.081315148505517645, 0.040670379624396111,
			0.022096501856291712, 0.012612258891642259, 0.0074306324898452264,
			0.0044714853731914923, 0.0027304910072345817},
		multadd: []float64{1, 0.35992097549602536, 0.19008826280072222, 0.11702167104565561,
			0.075159073262920512, 0.050838798075802848, 0.034697793340982747,
			0.024383365158504467, 0.017205497959856257},
		afacx: []float64{1, 0.35897302440162959, 0.18540806325666537, 0.11451734103760945,
			0.073589084380576625, 0.050076588240673681, 0.034469411705692538,
			0.024490007794859187, 0.017473107548871037},
		asyncMultadd: []float64{1, 0.35992097549602525, 0.19008826280072247, 0.11702167104565557,
			0.075159073262920428, 0.050838798075802848, 0.034697793340982809,
			0.024383365158504467, 0.01720549795985624},
		asyncAFACx: []float64{1, 0.35897302440162937, 0.18540806325666551, 0.11451734103760923,
			0.073589084380576611, 0.050076588240673736, 0.034469411705692524,
			0.024490007794859155, 0.017473107548871027},
		modelSemiMultadd: 0.017205497959856243,
		modelFullAFACx:   0.01747310754887103,
	},
}

func checkGoldenHistory(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: history length %d, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if err := relErr(got[i], want[i]); err > goldenRelTol {
			t.Errorf("%s: cycle %d: got %.17g, want %.17g (rel err %.3g)", label, i, got[i], want[i], err)
		}
	}
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// TestGoldenEquivalence verifies that the engine-backed solvers reproduce
// the pre-refactor residual histories: sequential mg (Mult/Multadd/AFACx),
// the synchronous team solver, and the §III model at α=1, δ=0 (where the
// model reduces to the synchronous additive iteration).
// TestMixedPrecisionGolden pins the float32 coarse hierarchy to the
// float64 goldens on all four paper matrices: the storage change must not
// alter the algorithm. Every method runs the same number of cycles in
// both precisions (identical iteration structure) and each per-cycle
// relative residual stays within 1e-6 of the float64 history — single
// precision on the coarse levels perturbs at rounding level, far below
// the convergence factors being reproduced.
func TestMixedPrecisionGolden(t *testing.T) {
	const f32RelTol = 1e-6
	problems := []struct {
		name string
		size int
	}{
		{problem.Laplace7pt, 14},
		{problem.Laplace27pt, 10},
		{problem.LaplaceFEM, 8},
		{problem.Elasticity, 3},
	}
	for _, p := range problems {
		t.Run(p.name, func(t *testing.T) {
			a, err := problem.Build(p.name, p.size)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			opt := asyncmg.DefaultAMGOptions()
			if p.name == problem.Elasticity {
				opt.NumFunctions = 3
			}
			smo := asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: problem.DefaultOmega(p.name), Blocks: 1}
			s64, err := asyncmg.NewSetup(a, opt, smo)
			if err != nil {
				t.Fatalf("float64 setup: %v", err)
			}
			opt32 := opt
			opt32.CoarsePrecision = asyncmg.CoarseFloat32
			s32, err := asyncmg.NewSetup(a, opt32, smo)
			if err != nil {
				t.Fatalf("float32 setup: %v", err)
			}
			if g64, g32 := s64.NumLevels(), s32.NumLevels(); g64 != g32 {
				t.Fatalf("precision changed the hierarchy: %d levels vs %d", g64, g32)
			}
			if b64, b32 := s64.HierarchyBytes(), s32.HierarchyBytes(); b32 >= b64 {
				t.Errorf("float32 hierarchy is not smaller: %d B vs %d B", b32, b64)
			}
			b := asyncmg.RandomRHS(a.Rows, 11)
			for _, m := range []asyncmg.Method{asyncmg.Mult, asyncmg.Multadd, asyncmg.AFACx} {
				_, h64 := asyncmg.SolveSync(s64, m, b, 8)
				_, h32 := asyncmg.SolveSync(s32, m, b, 8)
				if len(h64) != len(h32) {
					t.Fatalf("%v: iteration counts differ: %d vs %d cycles", m, len(h64)-1, len(h32)-1)
				}
				for i := range h64 {
					if err := relErr(h32[i], h64[i]); err > f32RelTol {
						t.Errorf("%v cycle %d: float32 %.17g vs float64 %.17g (rel err %.3g)",
							m, i, h32[i], h64[i], err)
					}
				}
			}
		})
	}
}

func TestGoldenEquivalence(t *testing.T) {
	smo := asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: 0.9, Blocks: 1}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			a := g.build()
			b := asyncmg.RandomRHS(a.Rows, g.rhsSeed)
			s, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), smo)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			if s.NumLevels() != len(g.sizes) {
				t.Fatalf("hierarchy changed: %d levels, goldens recorded on %d — re-record goldens", s.NumLevels(), len(g.sizes))
			}
			for k, want := range g.sizes {
				if got := s.LevelSize(k); got != want {
					t.Fatalf("hierarchy changed: level %d has %d rows, goldens recorded on %d — re-record goldens", k, got, want)
				}
			}

			for _, mc := range []struct {
				m    asyncmg.Method
				want []float64
			}{
				{asyncmg.Mult, g.mult},
				{asyncmg.Multadd, g.multadd},
				{asyncmg.AFACx, g.afacx},
			} {
				_, hist := asyncmg.SolveSync(s, mc.m, b, 8)
				checkGoldenHistory(t, fmt.Sprintf("sync %v", mc.m), hist, mc.want)
			}

			for _, mc := range []struct {
				m    asyncmg.Method
				want []float64
			}{
				{asyncmg.Multadd, g.asyncMultadd},
				{asyncmg.AFACx, g.asyncAFACx},
			} {
				res, err := asyncmg.SolveAsync(s, b, asyncmg.AsyncConfig{
					Method: mc.m, Sync: true, Threads: s.NumLevels(),
					MaxCycles: 8, RecordHistory: true,
				})
				if err != nil {
					t.Fatalf("async sync %v: %v", mc.m, err)
				}
				checkGoldenHistory(t, fmt.Sprintf("team sync %v", mc.m), res.History, mc.want)
			}

			semi, err := asyncmg.SimulateModel(s, b, asyncmg.ModelConfig{
				Variant: asyncmg.SemiAsync, Method: asyncmg.Multadd,
				Alpha: 1, Delta: 0, Updates: 8, Seed: 3,
			})
			if err != nil {
				t.Fatalf("model semi-async: %v", err)
			}
			if err := relErr(semi.RelRes, g.modelSemiMultadd); err > goldenRelTol {
				t.Errorf("model semi-async multadd: got %.17g, want %.17g (rel err %.3g)",
					semi.RelRes, g.modelSemiMultadd, err)
			}
			full, err := asyncmg.SimulateModel(s, b, asyncmg.ModelConfig{
				Variant: asyncmg.FullAsyncSolution, Method: asyncmg.AFACx,
				Alpha: 1, Delta: 0, Updates: 8, Seed: 3,
			})
			if err != nil {
				t.Fatalf("model full-async: %v", err)
			}
			if err := relErr(full.RelRes, g.modelFullAFACx); err > goldenRelTol {
				t.Errorf("model full-async afacx: got %.17g, want %.17g (rel err %.3g)",
					full.RelRes, g.modelFullAFACx, err)
			}
		})
	}
}
