package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

// sameCSRBits reports whether a and b store the same pattern and the same
// value bits.
func sameCSRBits[V sparse.Value, I sparse.Index](a, b *sparse.Matrix[V, I]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	return slices.EqualFunc(a.Vals, b.Vals, func(x, y V) bool {
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	})
}

// orderedCSR returns the rows of a row-length-ordered interpolant in CSR
// order.
func orderedCSR[V sparse.Value](t *op.OrderedInterp[V, uint32]) *sparse.Matrix[V, uint32] {
	rows := len(t.Row)
	m := &sparse.Matrix[V, uint32]{Rows: rows, Cols: t.PT.Rows, RowPtr: make([]uint32, rows+1)}
	at := make([]int, rows) // stored entry offset of each fine row
	for c, cl := range t.Class {
		first := 0
		if c > 0 {
			first = int(t.Class[c-1].End)
		}
		for r := first; r < int(cl.End); r++ {
			i := t.Row[r]
			m.RowPtr[i+1] = cl.Len
			at[i] = int(cl.Off) + (r-first)*int(cl.Len)
		}
	}
	for i := 0; i < rows; i++ {
		n := int(m.RowPtr[i+1])
		m.RowPtr[i+1] += m.RowPtr[i]
		m.ColIdx = append(m.ColIdx, t.ColIdx[at[i]:at[i]+n]...)
		m.Vals = append(m.Vals, t.Vals[at[i]:at[i]+n]...)
	}
	return m
}

// pbarOracle is level k's smoothed interpolant recomputed from the level's
// float64 operator, the stencil's materialized CSR on the hand-off level:
// Sub(P, ScaleRows(MatMul(A_k, P), s)), with s the scale of the engine's
// level-k smoother. It runs on the int widening of the level's uint32
// matrices and returns P̄ in uint32.
func pbarOracle(t *testing.T, s *Engine, k int) *sparse.Matrix[float64, uint32] {
	t.Helper()
	lev := s.H.Levels[k]
	var a *sparse.CSR
	if st, ok := lev.Op.(*op.Stencil); ok {
		a = st.CSR()
	} else {
		a = sparse.Convert[float64, int](op.AsCSR(lev.Op))
	}
	scale := s.Smo[k].InvDiag()
	if scale == nil {
		var err error
		if scale, err = smoother.InterpolantScalingOp(s.Ops[k], s.Cfg); err != nil {
			t.Fatal(err)
		}
	}
	p := sparse.Convert[float64, int](lev.Itp.(*op.CSRInterp[float64, uint32]).P)
	return sparse.Convert[float64, uint32](sparsetest.SmoothedInterp(a, p, scale))
}

// TestSmoothedInterpMatchesGEMM is the smoothed-interpolant contract:
// every row-length-ordered P̄ the engine forms from its level's A·P holds,
// row for row, bitwise the product-then-subtraction oracle (pbarOracle),
// and its P̄ᵀ the oracle's Transpose, in float64 and in float32, on the four paper families at test size and the hand-off
// level of a matrix-free 7pt n = 34 hierarchy, under ω-Jacobi, ℓ1-Jacobi
// and hybrid JGS, with and without sparsification (whose kept twins carry
// the twin·P sparsifyHierarchy formed), at 1 and 2 workers. Every
// smoother builds on every level, the stencil and float32 ones included.
func TestSmoothedInterpMatchesGEMM(t *testing.T) {
	mat := func(name string, size int) op.Operator {
		a, err := problem.Build(name, size)
		if err != nil {
			t.Fatal(err)
		}
		return op.FromCSR(a)
	}
	elas := amg.DefaultOptions()
	elas.NumFunctions = 3
	cases := []struct {
		name string
		a    op.Operator
		opt  amg.Options
	}{
		{"7pt-n12", mat(problem.Laplace7pt, 12), amg.DefaultOptions()},
		{"27pt-n10", mat(problem.Laplace27pt, 10), amg.DefaultOptions()},
		{"femlap-16", mat(problem.LaplaceFEM, 16), amg.DefaultOptions()},
		{"elas-5", mat(problem.Elasticity, 5), elas},
		{"stencil7-n34", op.NewStencil7(34), amg.DefaultOptions()},
	}
	smoothers := []smoother.Config{
		smoother.DefaultConfig(),
		{Kind: smoother.L1Jacobi, Blocks: 1},
		{Kind: smoother.HybridJGS, Blocks: 4},
	}
	dropped := 0
	for _, workers := range []int{1, 2} {
		for _, tc := range cases {
			for _, prec := range []op.Precision{op.Float64, op.CoarseFloat32} {
				for _, sparsify := range []bool{false, true} {
					name := fmt.Sprintf("w%d/%s/f32=%v/sparsify=%v", workers, tc.name, prec == op.CoarseFloat32, sparsify)
					t.Run(name, func(t *testing.T) {
						withEngineWorkers(t, workers)
						opt := tc.opt
						opt.CoarsePrecision = prec
						h, st, err := amg.BuildOperatorWithStats(tc.a, opt)
						if err != nil {
							t.Fatal(err)
						}
						if sparsify {
							if err := sparsifyHierarchy(h, amg.Theta, smoothers[1], st); err != nil {
								t.Fatal(err)
							}
						}
						dropped += st.DroppedNNZ()
						for _, cfg := range smoothers {
							s, err := NewFromHierarchy(h, cfg)
							if err != nil {
								t.Fatalf("%v: NewFromHierarchy: %v", cfg.Kind, err)
							}
							checked := 0
							for k, itp := range s.SItp {
								var ok, okT bool
								switch pbar := itp.(type) {
								case *op.OrderedInterp[float64, uint32]:
									want := pbarOracle(t, s, k)
									ok, okT = sameCSRBits(orderedCSR(pbar), want), sameCSRBits(pbar.PT, want.Transpose())
								case *op.OrderedInterp[float32, uint32]:
									want := sparse.Convert[float32, uint32](pbarOracle(t, s, k))
									ok, okT = sameCSRBits(orderedCSR(pbar), want), sameCSRBits(pbar.PT, want.Transpose())
								case *op.GeomInterp:
									continue
								default:
									t.Fatalf("%v level %d: P̄ is a %T, want a row-length-ordered store", cfg.Kind, k, itp)
								}
								if !ok {
									t.Errorf("%v level %d: P̄ differs from Sub(P, ScaleRows(MatMul(A, P), s))", cfg.Kind, k)
								}
								if !okT {
									t.Errorf("%v level %d: P̄ᵀ differs from the oracle's Transpose", cfg.Kind, k)
								}
								checked++
							}
							if checked == 0 {
								t.Fatalf("%v: no CSR P̄ checked", cfg.Kind)
							}
						}
					})
				}
			}
		}
	}
	if dropped == 0 {
		t.Error("no case kept a sparsified level: the re-formed A·P went unchecked")
	}
}

// TestSmoothedInterpUnionPattern: a C row that stores no diagonal and
// that no neighbour interpolates from leaves P's column out of A·P's row
// (ℓ1-Jacobi accepts such a row), and that level's P̄ gets its own
// exact-size storage for the union pattern, bitwise the oracle, whose
// prolongation over 1, 2, 3 and 8 shares is its CSR rows' bit for bit.
//
//	A = [ 0 -1  0 ]   P = [ 1  0  ]
//	    [-1  2 -1 ]       [ 0  1  ]
//	    [ 0 -1  2 ]       [ 0 1/2 ]
func TestSmoothedInterpUnionPattern(t *testing.T) {
	a := &sparse.Matrix[float64, uint32]{Rows: 3, Cols: 3, RowPtr: []uint32{0, 1, 4, 6},
		ColIdx: []uint32{1, 0, 1, 2, 1, 2}, Vals: []float64{-1, -1, 2, -1, -1, 2}}
	p := &sparse.Matrix[float64, uint32]{Rows: 3, Cols: 2, RowPtr: []uint32{0, 1, 2, 3},
		ColIdx: []uint32{0, 1, 1}, Vals: []float64{1, 1, 0.5}}
	ac, ap := sparse.RAPWith(a, p, p.Transpose())
	if ap.RowPtr[1] != 1 || ap.ColIdx[0] != 1 {
		t.Fatalf("A·P row 0 holds columns %v, want [1] alone", ap.ColIdx[:ap.RowPtr[1]])
	}
	h := &amg.Hierarchy{Levels: []amg.Level{
		{Op: op.FromCSR(a), Itp: op.InterpFromCSR(p, nil), AP: ap},
		{Op: op.FromCSR(ac)},
	}}
	s, err := NewFromHierarchy(h, smoother.Config{Kind: smoother.L1Jacobi, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	pbar := s.SItp[0].(*op.OrderedInterp[float64, uint32])
	got := orderedCSR(pbar)
	if want := pbarOracle(t, s, 0); !sameCSRBits(got, want) || !sameCSRBits(pbar.PT, want.Transpose()) {
		t.Fatalf("P̄ %v/%v/%v, oracle %v/%v/%v", got.RowPtr, got.ColIdx, got.Vals, want.RowPtr, want.ColIdx, want.Vals)
	}
	x, b := []float64{0.75, -1.5}, []float64{1, 2, 3}
	want := slices.Clone(b)
	got.ApplyAddRange(want, x, 0, got.Rows)
	for _, workers := range []int{1, 2, 3, 8} {
		y := slices.Clone(b)
		for shard := range workers {
			lo, hi := par.ShardRange(got.Rows, workers, shard)
			pbar.ApplyAddRange(y, x, lo, hi)
		}
		if !slices.Equal(y, want) {
			t.Errorf("%d shares: ApplyAddRange %v, CSR %v", workers, y, want)
		}
	}
	if got.NNZ() != ap.NNZ()+1 || cap(pbar.ColIdx) != got.NNZ() || cap(pbar.Vals) != got.NNZ() {
		t.Errorf("P̄ stores %d entries in capacity %d/%d, want the exact union of %d", got.NNZ(), cap(pbar.ColIdx), cap(pbar.Vals), ap.NNZ()+1)
	}
}
