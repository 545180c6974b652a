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
// smoother sweeps must reproduce the same arithmetic exactly.
const multGoldenCycles = 10

var multGoldens = []struct {
	name string
	// build returns the engine the history is recorded on.
	build func() (*engine.Engine, error)
	want  []float64
}{
	{name: "7pt-n8/hybrid-jgs", build: blockEngine(grid.Laplacian7pt, smoother.HybridJGS),
		want: []float64{1, 0.10019813202906878, 0.020901776763927411, 0.0054625315004972396, 0.0016111236193520914, 0.00053379930429152118, 0.00019285204801799242, 7.2888651841939228e-05, 2.8107777771556107e-05, 1.0933187117232899e-05, 4.2691094090995078e-06}},
	{name: "7pt-n8/async-gs", build: blockEngine(grid.Laplacian7pt, smoother.AsyncGS),
		want: []float64{1, 0.10019813202906878, 0.020901776763927411, 0.0054625315004972396, 0.0016111236193520914, 0.00053379930429152118, 0.00019285204801799242, 7.2888651841939228e-05, 2.8107777771556107e-05, 1.0933187117232899e-05, 4.2691094090995078e-06}},
	{name: "7pt-n8/l1-hybrid-jgs", build: blockEngine(grid.Laplacian7pt, smoother.L1HybridJGS),
		want: []float64{1, 0.11224968529790152, 0.030552951488732341, 0.0099106634457233958, 0.0034140634093547634, 0.0012361051212329626, 0.00047431192500463169, 0.00019329025275163162, 8.2889285222284903e-05, 3.6850116907736124e-05, 1.6752428432043181e-05}},
	{name: "27pt-n8/hybrid-jgs", build: blockEngine(grid.Laplacian27pt, smoother.HybridJGS),
		want: []float64{1, 0.035515488011499993, 0.0090695171172556887, 0.0027028845092753316, 0.00082430261888946459, 0.00025431636408029801, 7.9034163613466894e-05, 2.4663465070868387e-05, 7.7133616570194096e-06, 2.4149687977457904e-06, 7.5651669115342929e-07}},
	{name: "27pt-n8/async-gs", build: blockEngine(grid.Laplacian27pt, smoother.AsyncGS),
		want: []float64{1, 0.035515488011499993, 0.0090695171172556887, 0.0027028845092753316, 0.00082430261888946459, 0.00025431636408029801, 7.9034163613466894e-05, 2.4663465070868387e-05, 7.7133616570194096e-06, 2.4149687977457904e-06, 7.5651669115342929e-07}},
	{name: "27pt-n8/l1-hybrid-jgs", build: blockEngine(grid.Laplacian27pt, smoother.L1HybridJGS),
		want: []float64{1, 0.067969781025222664, 0.019430604717552646, 0.0078958468069195171, 0.0033843016863686097, 0.0014782957611817792, 0.00065337763680815559, 0.00029132356316070542, 0.00013077862736708007, 5.9018020622722263e-05, 2.6742192080744413e-05}},
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
	want := []float64{0.091770338581507627, 0.017425689799584396, 0.0040599633715736076, 0.0010693582957016861, 0.00032522456192158412, 0.00010742505649511113, 3.6830054327614969e-05, 1.2796533695191543e-05, 4.4525376539245579e-06, 1.5465762293475681e-06}
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
