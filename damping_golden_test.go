package asyncmg_test

import (
	"fmt"
	"testing"

	"asyncmg"
	"asyncmg/internal/problem"
)

// The damped histories below were recorded at %.17g from SolveSyncDamped
// at ω = 0.7 on the four paper matrices (RHS seed 11, WJacobi at each
// problem's default smoothing weight, 8 cycles). They pin the damped
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
		dampedMultadd: []float64{1, 0.43010777771837211, 0.25055618145002523,
			0.16449447554888058, 0.1154608260121268, 0.084525716922236413,
			0.063604860033566607, 0.048793436368898976, 0.037974405793602117},
		dampedAFACx: []float64{1, 0.4235761222906046, 0.24635797869493933,
			0.1629407154523497, 0.11529169579653616, 0.084905680994906793,
			0.064202485740331383, 0.049483111703216835, 0.038705129114976297},
	},
	{
		name: problem.Laplace27pt, size: 10,
		dampedMultadd: []float64{1, 0.38250331483803779, 0.17443887915363879,
			0.09574659616112019, 0.060243507574976395, 0.040986882253667756,
			0.029111187146162225, 0.021218011856677332, 0.015734643104713165},
		dampedAFACx: []float64{1, 0.38116106010154371, 0.17322629724891825,
			0.094824599173229149, 0.059512875674664088, 0.04039180764899987,
			0.028634481164445353, 0.020849082793490906, 0.015459555340388637},
	},
	{
		name: problem.LaplaceFEM, size: 8,
		dampedMultadd: []float64{1, 0.63854466872901894, 0.4648540474274096,
			0.3626432257385106, 0.29430296687408719, 0.24489524953068598,
			0.20734976648868361, 0.17783769780782777, 0.15407065108091966},
		dampedAFACx: []float64{1, 0.6379193477784173, 0.47082208585309715,
			0.3686506912776894, 0.29951920988689823, 0.24959490471367446,
			0.21177264602314494, 0.18209979314842695, 0.1582179278551992},
	},
	{
		name: problem.Elasticity, size: 3,
		dampedMultadd: []float64{1, 0.68522876318002979, 0.55787982080609644,
			0.48382105620163834, 0.43229673420096892, 0.39283458096581542,
			0.36103658759930524, 0.33468461946585276, 0.31247097575187288},
		dampedAFACx: []float64{1, 0.7127078530075025, 0.57727351319921216,
			0.4952391733050861, 0.43747134238459218, 0.39394833713739852,
			0.35973960460424154, 0.33204705197033696, 0.30913719923714372},
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
