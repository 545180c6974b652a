package asyncmg_test

import (
	"fmt"
	"testing"

	"asyncmg"
	"asyncmg/internal/problem"
)

// The damped histories below were recorded at %.17g from SolveSyncDamped
// at ω = 0.7 on the four paper matrices (RHS seed 11, WJacobi at each
// problem's default smoothing weight, 8 cycles; re-recorded when multipass
// interpolation became pass-synchronous). They pin the damped
// correction path: the ω-scaling of the level corrections must stay
// exactly where it is in the cycle (after smoothing/coarse solve, before
// prolongation) and must keep scaling only the additive correction, not
// the smoothed iterate. ω = 1 is additionally pinned bit-for-bit against
// the undamped solver, so the damped variant can never drift from the
// goldens that TestGoldenEquivalence enforces.
type dampedGolden struct {
	name string
	size int
	// Serial damped histories at ω = 0.7, 9 entries (index 0 is 1.0).
	dampedMultadd, dampedAFACx []float64
}

var dampedGoldens = []dampedGolden{
	{
		name: problem.Laplace7pt, size: 14,
		dampedMultadd: []float64{1, 0.42965127918184243, 0.25011062099184223,
			0.16385393227681075, 0.11472750370894853, 0.083754159099999906,
			0.062836965848728749, 0.048053269965933183, 0.037275266999520155},
		dampedAFACx: []float64{1, 0.42374617714063412, 0.2461489993967847,
			0.16245753811671285, 0.11462995148428058, 0.084170965974549844,
			0.063439497702929518, 0.048710586466830991, 0.037934224501000417},
	},
	{
		name: problem.Laplace27pt, size: 10,
		dampedMultadd: []float64{1, 0.38252192557746895, 0.17373709972916768,
			0.094270967080769888, 0.058302907428150863, 0.038911652594055032,
			0.027115150968580394, 0.019409244102061882, 0.014153876733229863},
		dampedAFACx: []float64{1, 0.38080941870327611, 0.1722352239102948,
			0.093089816624698007, 0.05739410657568754, 0.03821997822494972,
			0.026595099461945267, 0.019024235310060325, 0.01387396077589483},
	},
	{
		name: problem.LaplaceFEM, size: 8,
		dampedMultadd: []float64{1, 0.6396364260994396, 0.4636900538283471,
			0.35943671375749858, 0.28970018744999115, 0.23940160043873512,
			0.20131898052562264, 0.171519081284328, 0.14764188064089284},
		dampedAFACx: []float64{1, 0.6414126676192472, 0.47130978435084026,
			0.36670301367078861, 0.29610705102212348, 0.24527944167086391,
			0.20689493334371706, 0.17689061421827795, 0.15284175958035501},
	},
	{
		name: problem.Elasticity, size: 3,
		dampedMultadd: []float64{1, 0.68396932884794792, 0.55123810158418396,
			0.47201681072349772, 0.41675345909162625, 0.37493934090051956,
			0.34185021220254425, 0.31495180470861883, 0.29269368537491597},
		dampedAFACx: []float64{1, 0.69802334280017331, 0.56456328674356948,
			0.48089134722211663, 0.42153623297220394, 0.37687023732986413,
			0.34197690387822016, 0.3139660842325413, 0.29100608338031997},
	},
}

// TestDampedGolden pins the serial damped cycle on all four paper
// matrices: the ω = 0.7 histories against the recorded literals, and
// ω = 1 bit-for-bit against the undamped solver. The team solver with a
// fixed policy must reproduce the serial damped history under Sync mode
// (barrier order makes it deterministic; tiny reduction-order slack).
func TestDampedGolden(t *testing.T) {
	const omega = 0.7
	const teamRelTol = 1e-9
	for _, g := range dampedGoldens {
		t.Run(g.name, func(t *testing.T) {
			a, err := problem.Build(g.name, g.size)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			opt := asyncmg.DefaultAMGOptions()
			if g.name == problem.Elasticity {
				opt.NumFunctions = 3
			}
			smo := asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: problem.DefaultOmega(g.name), Blocks: 1}
			s, err := asyncmg.NewSetup(a, opt, smo)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			b := asyncmg.RandomRHS(a.Rows, 11)
			for _, mc := range []struct {
				m    asyncmg.Method
				want []float64
			}{
				{asyncmg.Multadd, g.dampedMultadd},
				{asyncmg.AFACx, g.dampedAFACx},
			} {
				x1, h1 := asyncmg.SolveSync(s, mc.m, b, 8)
				xd, hd := asyncmg.SolveSyncDamped(s, mc.m, b, 8, 1)
				for i := range x1 {
					if xd[i] != x1[i] {
						t.Fatalf("%v: ω=1 damped solve diverges bitwise from undamped at x[%d]: %g vs %g",
							mc.m, i, xd[i], x1[i])
					}
				}
				for i := range h1 {
					if hd[i] != h1[i] {
						t.Fatalf("%v: ω=1 damped history differs at cycle %d: %.17g vs %.17g",
							mc.m, i, hd[i], h1[i])
					}
				}

				_, hist := asyncmg.SolveSyncDamped(s, mc.m, b, 8, omega)
				checkGoldenHistory(t, fmt.Sprintf("damped %v", mc.m), hist, mc.want)

				res, err := asyncmg.SolveAsync(s, b, asyncmg.AsyncConfig{
					Method: mc.m, Sync: true, Threads: s.NumLevels(),
					MaxCycles: 8, RecordHistory: true,
					Damping: asyncmg.DampingPolicy{Mode: asyncmg.DampFixed, Omega: omega},
				})
				if err != nil {
					t.Fatalf("team damped %v: %v", mc.m, err)
				}
				if len(res.History) != len(mc.want) {
					t.Fatalf("team damped %v: history length %d, want %d", mc.m, len(res.History), len(mc.want))
				}
				for i := range mc.want {
					if e := relErr(res.History[i], mc.want[i]); e > teamRelTol {
						t.Errorf("team damped %v cycle %d: got %.17g, want %.17g (rel err %.3g)",
							mc.m, i, res.History[i], mc.want[i], e)
					}
				}
			}
		})
	}
}
