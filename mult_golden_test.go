package asyncmg_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// The Mult histories below were recorded at %.17g, 10 cycles each, on the
// down-leg paths golden_test.go does not reach: the block smoothers
// (hybrid JGS, async GS, ℓ1 hybrid JGS, 4 blocks) on assembled CSR
// levels, ω-Jacobi on a matrix-free stencil hierarchy, and the
// team-synchronous Mult with async-GS smoothing at one thread. Every
// entry is compared bit for bit (math.Float64bits): a kernel substitution
// in the V-cycle down-leg (pre-smooth, residual, restrict) or in the
// smoother sweeps must reproduce the same arithmetic exactly. The CSR
// entries were re-recorded when multipass interpolation became
// pass-synchronous; the stencil entries have no multipass level.
const multGoldenCycles = 10

var multGoldens = []struct {
	name string
	// build returns the engine the history is recorded on.
	build func() (*engine.Engine, error)
	want  []float64
}{
	{name: "7pt-n8/hybrid-jgs", build: blockEngine(grid.Laplacian7pt, smoother.HybridJGS),
		want: []float64{1, 0.099212587076825232, 0.020086633072957018, 0.0050144755796973734, 0.0014473225895850139, 0.0004820123190526204, 0.000176566893320396, 6.7461471118081392e-05, 2.6173184774433233e-05, 1.0206830305204108e-05, 3.9869846549256966e-06}},
	{name: "7pt-n8/async-gs", build: blockEngine(grid.Laplacian7pt, smoother.AsyncGS),
		want: []float64{1, 0.099212587076825232, 0.020086633072957018, 0.0050144755796973734, 0.0014473225895850139, 0.0004820123190526204, 0.000176566893320396, 6.7461471118081392e-05, 2.6173184774433233e-05, 1.0206830305204108e-05, 3.9869846549256966e-06}},
	{name: "7pt-n8/l1-hybrid-jgs", build: blockEngine(grid.Laplacian7pt, smoother.L1HybridJGS),
		want: []float64{1, 0.11088548356000952, 0.029941450294821828, 0.0095713865286129185, 0.003249420847942584, 0.0011621921119731391, 0.00044226413134360992, 0.0001797223592197198, 7.7195072627950077e-05, 3.4430552926750529e-05, 1.5694862262839034e-05}},
	{name: "27pt-n8/hybrid-jgs", build: blockEngine(grid.Laplacian27pt, smoother.HybridJGS),
		want: []float64{1, 0.035423350934627784, 0.0088951446278497503, 0.00263064490640133, 0.00079703097138089532, 0.00024445644554737595, 7.5565034691910219e-05, 2.3458882797862726e-05, 7.2973279678680088e-06, 2.2714849366437668e-06, 7.0701305257106049e-07}},
	{name: "27pt-n8/async-gs", build: blockEngine(grid.Laplacian27pt, smoother.AsyncGS),
		want: []float64{1, 0.035423350934627784, 0.0088951446278497503, 0.00263064490640133, 0.00079703097138089532, 0.00024445644554737595, 7.5565034691910219e-05, 2.3458882797862726e-05, 7.2973279678680088e-06, 2.2714849366437668e-06, 7.0701305257106049e-07}},
	{name: "27pt-n8/l1-hybrid-jgs", build: blockEngine(grid.Laplacian27pt, smoother.L1HybridJGS),
		want: []float64{1, 0.067641175816167881, 0.019156708771512435, 0.0077750570936059625, 0.0033374872972128876, 0.0014624861886888268, 0.0006491862014109907, 0.00029091381114190924, 0.00013130291455574683, 5.9583058474056809e-05, 2.714558447443489e-05}},
	{name: "stencil7-n16/w-jacobi", build: stencilEngine(op.NewStencil7(16)),
		want: []float64{1, 0.15274188885798165, 0.053315143634936495, 0.022669056862498111, 0.010636585486391686, 0.0052988124778897815, 0.0027496883809454867, 0.0014697683327704186, 0.00080314605728736075, 0.0004462272498513597, 0.00025106950753395397}},
	{name: "stencil27-n16/w-jacobi", build: stencilEngine(op.NewStencil27(16)),
		want: []float64{1, 0.029741851392099488, 0.002711473811826222, 0.00028488490175607211, 3.2148089411100978e-05, 3.80286692813541e-06, 4.6502636131613399e-07, 5.8267381839244288e-08, 7.4363720109551964e-09, 9.6256472215903794e-10, 1.2596908259832461e-10}},
}

func blockEngine(lap func(int) *sparse.CSR, kind smoother.Kind) func() (*engine.Engine, error) {
	return func() (*engine.Engine, error) {
		return engine.New(lap(8), amg.DefaultOptions(), smoother.Config{Kind: kind, Omega: 0.9, Blocks: 4})
	}
}

func stencilEngine(st *op.Stencil) func() (*engine.Engine, error) {
	return func() (*engine.Engine, error) {
		return engine.NewOperator(st, amg.DefaultOptions(), smoother.DefaultConfig())
	}
}

// checkBitwise fails unless got and want are bitwise equal entry by entry,
// printing got as a Go literal to re-record from.
func checkBitwise(t *testing.T, got, want []float64) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i]) == math.Float64bits(want[i])
	}
	if !same {
		lit := make([]string, len(got))
		for i, v := range got {
			lit[i] = fmt.Sprintf("%.17g", v)
		}
		t.Errorf("history differs from the golden:\n got  []float64{%s}\n want %v", strings.Join(lit, ", "), want)
	}
}

// TestMultGoldenBitwise pins the serial Engine.Solve(Mult) histories.
func TestMultGoldenBitwise(t *testing.T) {
	for _, g := range multGoldens {
		t.Run(g.name, func(t *testing.T) {
			s, err := g.build()
			if err != nil {
				t.Fatal(err)
			}
			if s.NumLevels() < 2 {
				t.Fatalf("%d levels: the golden needs a down-leg", s.NumLevels())
			}
			_, hist := s.Solve(engine.Mult, grid.RandomRHS(s.LevelSize(0), 5), multGoldenCycles)
			checkBitwise(t, hist, g.want)
		})
	}
}

// TestTeamMultGoldenBitwise pins the team-synchronous Mult (async.Solve,
// one thread, async-GS smoothing over the atomic overlay): the final
// relative residual after each cycle count 1 … 10.
func TestTeamMultGoldenBitwise(t *testing.T) {
	want := []float64{0.090937947318641257, 0.016897476373076908, 0.0037740872351878945, 0.00099163116706480771, 0.00031141454047682902, 0.00010447506007512029, 3.5757160180491663e-05, 1.2364813338790952e-05, 4.2963101655694071e-06, 1.4953815804931081e-06}
	s, err := blockEngine(grid.Laplacian7pt, smoother.AsyncGS)()
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(s.LevelSize(0), 5)
	got := make([]float64, 0, multGoldenCycles)
	for cycles := 1; cycles <= multGoldenCycles; cycles++ {
		res, err := async.Solve(context.Background(), s, b, async.Config{Method: engine.Mult, Threads: 1, MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.RelRes)
	}
	checkBitwise(t, got, want)
}
