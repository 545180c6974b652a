package asyncmg_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
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
// pass-synchronous; the stencil entries have no multipass level. Every
// history was re-recorded when vec.Norm2 became one block-ordered pass
// of Σx² (84 of 98 entries moved, by at most 22 ulps; no xhash moved).
//
// xhash pins each case's final iterate (iterateHash): the history is
// measured through vec.Norm2, the iterate through no reduction at all, so
// a change to how the norm sums moves want alone, and xhash shows the
// cycle arithmetic stayed put.
const multGoldenCycles = 10

var multGoldens = []struct {
	name  string
	xhash uint64
	// build returns the engine the history is recorded on.
	build func() (*engine.Engine, error)
	want  []float64
}{
	{name: "7pt-n8/hybrid-jgs", xhash: 0xbbe4b005dae13f0b, build: blockEngine(grid.Laplacian7pt, smoother.HybridJGS),
		want: []float64{1, 0.099212587076825315, 0.020086633072957039, 0.0050144755796973717, 0.0014473225895850121, 0.00048201231905262051, 0.000176566893320396, 6.7461471118081392e-05, 2.6173184774433254e-05, 1.0206830305204132e-05, 3.9869846549256941e-06}},
	{name: "7pt-n8/async-gs", xhash: 0xbbe4b005dae13f0b, build: blockEngine(grid.Laplacian7pt, smoother.AsyncGS),
		want: []float64{1, 0.099212587076825315, 0.020086633072957039, 0.0050144755796973717, 0.0014473225895850121, 0.00048201231905262051, 0.000176566893320396, 6.7461471118081392e-05, 2.6173184774433254e-05, 1.0206830305204132e-05, 3.9869846549256941e-06}},
	{name: "7pt-n8/l1-hybrid-jgs", xhash: 0x2ba0974994de8f23, build: blockEngine(grid.Laplacian7pt, smoother.L1HybridJGS),
		want: []float64{1, 0.1108854835600096, 0.029941450294821818, 0.0095713865286129306, 0.0032494208479425832, 0.0011621921119731404, 0.00044226413134361019, 0.00017972235921971991, 7.7195072627950172e-05, 3.4430552926750549e-05, 1.5694862262839037e-05}},
	{name: "27pt-n8/hybrid-jgs", xhash: 0x2046e1ecde5a1467, build: blockEngine(grid.Laplacian27pt, smoother.HybridJGS),
		want: []float64{1, 0.035423350934627777, 0.0088951446278497485, 0.0026306449064013335, 0.00079703097138089565, 0.00024445644554737606, 7.5565034691910259e-05, 2.3458882797862736e-05, 7.2973279678680122e-06, 2.2714849366437685e-06, 7.0701305257106081e-07}},
	{name: "27pt-n8/async-gs", xhash: 0x2046e1ecde5a1467, build: blockEngine(grid.Laplacian27pt, smoother.AsyncGS),
		want: []float64{1, 0.035423350934627777, 0.0088951446278497485, 0.0026306449064013335, 0.00079703097138089565, 0.00024445644554737606, 7.5565034691910259e-05, 2.3458882797862736e-05, 7.2973279678680122e-06, 2.2714849366437685e-06, 7.0701305257106081e-07}},
	{name: "27pt-n8/l1-hybrid-jgs", xhash: 0x8c2491455b04a426, build: blockEngine(grid.Laplacian27pt, smoother.L1HybridJGS),
		want: []float64{1, 0.067641175816167978, 0.019156708771512439, 0.0077750570936059651, 0.0033374872972128881, 0.0014624861886888268, 0.00064918620141099102, 0.00029091381114190951, 0.00013130291455574681, 5.9583058474056823e-05, 2.7145584474434913e-05}},
	{name: "stencil7-n16/w-jacobi", xhash: 0x96b029ebdb19a419, build: stencilEngine(op.NewStencil7(16)),
		want: []float64{1, 0.15274188885798182, 0.05331514363493655, 0.022669056862498128, 0.0106365854863917, 0.0052988124778897893, 0.0027496883809454832, 0.0014697683327704201, 0.00080314605728736129, 0.00044622724985136084, 0.00025106950753395397}},
	{name: "stencil27-n16/w-jacobi", xhash: 0x8ce9beea371d8c19, build: stencilEngine(op.NewStencil27(16)),
		want: []float64{1, 0.029741851392099547, 0.0027114738118262168, 0.00028488490175607205, 3.2148089411100991e-05, 3.8028669281354121e-06, 4.6502636131613314e-07, 5.8267381839244367e-08, 7.4363720109551989e-09, 9.6256472215903856e-10, 1.2596908259832518e-10}},
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

// iterateHash folds the bit patterns of x into h.
func iterateHash(h hash.Hash64, x []float64) {
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// checkIterate fails unless h holds the pinned iterate hash.
func checkIterate(t *testing.T, h hash.Hash64, want uint64) {
	t.Helper()
	if got := h.Sum64(); got != want {
		t.Errorf("final iterate hash %#016x, want %#016x", got, want)
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
			x, hist := s.Solve(engine.Mult, grid.RandomRHS(s.LevelSize(0), 5), multGoldenCycles)
			checkBitwise(t, hist, g.want)
			h := fnv.New64a()
			iterateHash(h, x)
			checkIterate(t, h, g.xhash)
		})
	}
}

// TestTeamMultGoldenBitwise pins the team-synchronous Mult (async.Solve,
// one thread, async-GS smoothing over the atomic overlay): the final
// relative residual after each cycle count 1 … 10, and the ten final
// iterates folded into one hash.
func TestTeamMultGoldenBitwise(t *testing.T) {
	const xhash = 0x8afe829ecbf2acb1
	want := []float64{0.090937947318641368, 0.016897476373076915, 0.0037740872351878915, 0.00099163116706480663, 0.00031141454047682897, 0.00010447506007512031, 3.5757160180491677e-05, 1.2364813338790957e-05, 4.2963101655694079e-06, 1.4953815804931085e-06}
	s, err := blockEngine(grid.Laplacian7pt, smoother.AsyncGS)()
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(s.LevelSize(0), 5)
	got := make([]float64, 0, multGoldenCycles)
	h := fnv.New64a()
	for cycles := 1; cycles <= multGoldenCycles; cycles++ {
		res, err := async.Solve(context.Background(), s, b, async.Config{Method: engine.Mult, Threads: 1, MaxCycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.RelRes)
		iterateHash(h, res.X)
	}
	checkBitwise(t, got, want)
	checkIterate(t, h, xhash)
}
