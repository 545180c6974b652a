package harness

import (
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/op"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
	"asyncmg/internal/sparse"
)

// scalingSolves are the iterates and residual histories of sync Mult,
// sync Multadd and Mult-preconditioned PCG, in that order.
type scalingSolves struct {
	x, hist [3][]float64
}

func runScalingSolves(t *testing.T, s *engine.Engine, b []float64) scalingSolves {
	t.Helper()
	const cycles = 8
	var r scalingSolves
	r.x[0], r.hist[0] = s.Solve(engine.Mult, b, cycles)
	r.x[1], r.hist[1] = s.Solve(engine.Multadd, b, cycles)
	p := krylov.NewMGPreconditioner(s, engine.Mult)
	defer p.Release()
	ko := krylov.DefaultOptions()
	ko.Tol, ko.MaxIter, ko.M = 1e-300, cycles, p
	res, err := krylov.PCG(s.Ops[0], b, ko)
	if err != nil {
		t.Fatalf("pcg: %v", err)
	}
	r.x[2], r.hist[2] = res.X, res.History
	return r
}

// TestScalingMetamorphic is a metamorphic oracle for the setup and the
// synchronous solvers on the paper's matrices. Every setup stage, from
// strength through the coarse LU, is homogeneous in A, and a power of two
// scales exactly far from overflow and underflow. So A → c·A must leave
// every level size and the Mult, Multadd and PCG(Mult) residual histories
// bitwise unchanged, and b → 2b must double every iterate exactly. The
// four configurations take different code paths: ω-Jacobi, ℓ1-Jacobi,
// float32 coarse storage and sparsified coarse operators. The sparsified
// ones must really drop entries, except on elasticity, where the guard
// reverts every candidate level (TestSparsifyPaperMatrices).
func TestScalingMetamorphic(t *testing.T) {
	configs := []struct {
		name      string
		kind      smoother.Kind
		precision op.Precision
		sparsify  bool
	}{
		{"wjacobi", smoother.WJacobi, op.Float64, false},
		{"l1jacobi", smoother.L1Jacobi, op.Float64, false},
		{"f32-coarse", smoother.WJacobi, op.CoarseFloat32, false},
		{"sparsified", smoother.WJacobi, op.Float64, true},
	}
	for _, pm := range paperMatrices {
		a, err := problem.Build(pm.problem, pm.size)
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(a.Rows, 5)
		b2 := make([]float64, len(b))
		for i, v := range b {
			b2[i] = 2 * v
		}
		for _, cfg := range configs {
			name := pm.problem + "/" + cfg.name
			opt := amg.DefaultOptions()
			opt.CoarsePrecision = cfg.precision
			if cfg.sparsify {
				opt.Sparsify = true
			}
			smo := smoother.Config{Kind: cfg.kind, Omega: problem.DefaultOmega(pm.problem), Blocks: 1}
			build := func(a *sparse.CSR) *engine.Engine {
				s, err := solve.Build(solve.Source{Problem: pm.problem, Matrix: a}, opt, smo, false)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return s
			}
			base := build(a)
			if cfg.sparsify && pm.problem != problem.Elasticity && base.Setup.DroppedNNZ() == 0 {
				t.Errorf("%s: sparsification dropped nothing; the configuration tests no sparsified level", name)
			}
			want := runScalingSolves(t, base, b)

			doubled := runScalingSolves(t, base, b2)
			for m := range want.x {
				equalBits(t, name+"/2b history", doubled.hist[m], want.hist[m])
				for i, v := range want.x[m] {
					if doubled.x[m][i] != 2*v {
						t.Fatalf("%s: solve %d with 2b: x[%d] = %v, want exactly %v", name, m, i, doubled.x[m][i], 2*v)
					}
				}
			}

			for _, c := range []float64{math.Ldexp(1, -40), math.Ldexp(1, 60)} {
				ca := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Vals: make([]float64, len(a.Vals))}
				for i, v := range a.Vals {
					ca.Vals[i] = c * v
				}
				s := build(ca)
				if s.NumLevels() != base.NumLevels() {
					t.Fatalf("%s: c=%g: %d levels, want %d", name, c, s.NumLevels(), base.NumLevels())
				}
				for k := 0; k < s.NumLevels(); k++ {
					if s.LevelSize(k) != base.LevelSize(k) {
						t.Errorf("%s: c=%g: level %d has %d rows, want %d", name, c, k, s.LevelSize(k), base.LevelSize(k))
					}
				}
				if s.Setup.DroppedNNZ() != base.Setup.DroppedNNZ() || s.Setup.SparsifyFallbacks != base.Setup.SparsifyFallbacks {
					t.Errorf("%s: c=%g: sparsify dropped %d with %d fallbacks, want %d with %d", name, c,
						s.Setup.DroppedNNZ(), s.Setup.SparsifyFallbacks, base.Setup.DroppedNNZ(), base.Setup.SparsifyFallbacks)
				}
				got := runScalingSolves(t, s, b)
				for m := range want.hist {
					equalBits(t, name+"/cA history", got.hist[m], want.hist[m])
				}
			}
		}
	}
}

// equalBits fails unless got and want hold the same float64 bits.
func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
