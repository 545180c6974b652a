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
// They were re-recorded once, when multipass interpolation became
// pass-synchronous and the aggressive level's P changed with it.
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
		mult: []float64{1, 0.0707707659813787, 0.02452518694952173, 0.011335462430397975,
			0.0058209204759743947, 0.0031093789704168761, 0.0016900507201241999,
			0.00092751436147521353, 0.00051248043593876962},
		multadd: []float64{1, 0.16695211507726682, 0.070688043092401689, 0.038915794458539224,
			0.023960602068038937, 0.015760731267817685, 0.010792476124781925,
			0.0075724393950096962, 0.0053931239716558449},
		afacx: []float64{1, 0.16566979444951094, 0.071022566641731427, 0.039643742664750202,
			0.024739155046807633, 0.016475149107191528, 0.011420026339803773,
			0.0081079632082193698, 0.0058411221500412449},
		asyncMultadd: []float64{1, 0.16695211507726662, 0.070688043092401689, 0.038915794458539252,
			0.02396060206803894, 0.015760731267817681, 0.010792476124781908,
			0.0075724393950097005, 0.0053931239716558397},
		asyncAFACx: []float64{1, 0.16566979444951099, 0.07102256664173151, 0.039643742664750209,
			0.024739155046807647, 0.016475149107191538, 0.011420026339803768,
			0.0081079632082193612, 0.0058411221500412353},
		modelSemiMultadd: 0.0053931239716558449,
		modelFullAFACx:   0.0058411221500412449,
	},
	{
		name:    "7pt-n14",
		build:   func() *asyncmg.Matrix { return asyncmg.Laplacian7pt(14) },
		rhsSeed: 7,
		sizes:   []int{2744, 190, 43, 8},
		mult: []float64{1, 0.19282865764111787, 0.079514293980910533, 0.038732549649878198,
			0.020423375441010541, 0.011319319318698697, 0.0064957985488696439,
			0.0038239759581118393, 0.0022947248999241531},
		multadd: []float64{1, 0.35671668897184983, 0.18817812313810769, 0.11500108220793295,
			0.073854389472083434, 0.049729691050521718, 0.033904767220353085,
			0.023773915691007667, 0.01673912144708779},
		afacx: []float64{1, 0.35970530526741867, 0.18550123855961406, 0.11494116279048311,
			0.073503564001070609, 0.050094423975478052, 0.034284022915670141,
			0.024352075061816626, 0.017271904692829288},
		asyncMultadd: []float64{1, 0.35671668897185022, 0.1881781231381075, 0.11500108220793293,
			0.073854389472083365, 0.049729691050521684, 0.033904767220353169,
			0.023773915691007688, 0.016739121447087779},
		asyncAFACx: []float64{1, 0.35970530526741812, 0.18550123855961412, 0.11494116279048308,
			0.073503564001070512, 0.0500944239754781, 0.034284022915670093,
			0.024352075061816671, 0.017271904692829305},
		modelSemiMultadd: 0.016739121447087783,
		modelFullAFACx:   0.017271904692829288,
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
