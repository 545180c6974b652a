package engine

import (
	"slices"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// TestEnginesShareHierarchyViews: NewFromHierarchy leaves the hierarchy's
// level views and each level's A·P as the setup made them, so two engines
// built on one hierarchy run the same Multadd bit for bit; every P̄ on an
// algebraic level is a row-length-ordered store holding its own entries,
// none of its level's A·P (so A·P is collectable once the engine is
// built), and a level with a CSR interpolant and no A·P is an error. New and
// NewOperator, whose hierarchy is their own, leave each level holding the
// engine's views and no A·P. Assembled and stencil fine levels, float64
// and CoarseFloat32.
func TestEnginesShareHierarchyViews(t *testing.T) {
	smo := smoother.DefaultConfig()
	f32 := amg.DefaultOptions()
	f32.CoarsePrecision = op.CoarseFloat32
	for _, tc := range []struct {
		name string
		a    op.Operator
		opt  amg.Options
	}{
		{"csr", op.FromCSR(grid.Laplacian7pt(12)), amg.DefaultOptions()},
		{"csr-f32", op.FromCSR(grid.Laplacian7pt(12)), f32},
		{"stencil-n34", op.NewStencil7(34), amg.DefaultOptions()},
		{"stencil-n34-f32", op.NewStencil7(34), f32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _, err := amg.BuildOperatorWithStats(tc.a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			before := slices.Clone(h.Levels)
			var aps []*sparse.Matrix[float64, uint32]
			for _, lev := range h.Levels {
				if _, csr := lev.Itp.(*op.CSRInterp[float64, uint32]); csr != (lev.AP != nil) {
					t.Fatalf("level with interpolant %T holds A·P %v", lev.Itp, lev.AP != nil)
				}
				if ap := lev.AP; ap != nil {
					aps = append(aps, &sparse.Matrix[float64, uint32]{Rows: ap.Rows, Cols: ap.Cols,
						RowPtr: slices.Clone(ap.RowPtr), ColIdx: slices.Clone(ap.ColIdx), Vals: slices.Clone(ap.Vals)})
				}
			}
			var hists [2][]float64
			for i := range hists {
				s, err := NewFromHierarchy(h, smo)
				if err != nil {
					t.Fatal(err)
				}
				for k, lev := range h.Levels {
					if lev.Op != before[k].Op || lev.Itp != before[k].Itp || lev.AP != before[k].AP {
						t.Fatalf("engine %d: level %d holds %T/%T, the setup left %T/%T", i, k, lev.Op, lev.Itp, before[k].Op, before[k].Itp)
					}
				}
				for k, itp := range s.SItp {
					switch pbar := itp.(type) {
					case *op.OrderedInterp[float64, uint32]:
						if &pbar.ColIdx[0] == &h.Levels[k].AP.ColIdx[0] {
							t.Errorf("engine %d: level %d P̄ shares its A·P pattern", i, k)
						}
					case *op.OrderedInterp[float32, uint32], *op.GeomInterp:
					default:
						t.Errorf("engine %d: level %d P̄ is a %T, want a row-length-ordered store or a class table", i, k, itp)
					}
				}
				_, hists[i] = s.Solve(Multadd, grid.RandomRHS(s.LevelSize(0), 7), 6)
			}
			if !slices.Equal(hists[0], hists[1]) {
				t.Errorf("Multadd histories differ on one hierarchy: %v vs %v", hists[0], hists[1])
			}
			for k, i := 0, 0; k < len(h.Levels); k++ {
				if ap := h.Levels[k].AP; ap != nil {
					if !sameCSRBits(ap, aps[i]) {
						t.Errorf("level %d A·P changed under its engines", k)
					}
					i++
				}
			}
			k := len(h.Levels) - 2 // the last level with an interpolant is algebraic
			noAP := &amg.Hierarchy{Levels: slices.Clone(h.Levels), Coarse: h.Coarse, Precision: h.Precision}
			noAP.Levels[k].AP = nil
			if _, err := NewFromHierarchy(noAP, smo); err == nil {
				t.Errorf("level %d without A·P: NewFromHierarchy returned no error", k)
			}

			owned := []*Engine{}
			s, err := NewOperator(tc.a, tc.opt, smo)
			if err != nil {
				t.Fatal(err)
			}
			owned = append(owned, s)
			if m, ok := tc.a.(*op.CSR[float64, int]); ok {
				if s, err = New(m.M, tc.opt, smo); err != nil {
					t.Fatal(err)
				}
				owned = append(owned, s)
			}
			for _, s := range owned {
				for k, lev := range s.H.Levels {
					if lev.AP != nil {
						t.Errorf("level %d of an owned hierarchy keeps its A·P", k)
					}
					if lev.Op != s.Ops[k] {
						t.Errorf("level %d holds %T, not the engine's %T", k, lev.Op, s.Ops[k])
					}
					if k < len(s.Itp) && lev.Itp != s.Itp[k] {
						t.Errorf("level %d holds %T, not the engine's %T", k, lev.Itp, s.Itp[k])
					}
				}
			}
		})
	}
}

// csrFormulaBytes is the storage of an engine's views by the CSR formula,
// 12·nnz + 4·(rows+1) bytes per float64/uint32 matrix and 8·nnz +
// 4·(rows+1) per float32/uint32 one (Pᵀ and P̄ᵀ counted as matrices of
// their own); a row-length-ordered P̄ counts 12·nnz + 4·rows (8·nnz +
// 4·rows in float32), its row index in place of the row pointers, plus 12
// bytes per length class; a stencil or class-table interpolant counts its
// own Bytes. A view in any other instantiation, an int-indexed one among
// them, fails t.
func csrFormulaBytes(t *testing.T, s *Engine) int {
	t.Helper()
	csr := func(rows, nnz, valBytes int) int { return (valBytes+4)*nnz + 4*(rows+1) }
	total := 0
	for k, a := range s.Ops {
		switch v := a.(type) {
		case *op.CSR[float64, uint32]:
			total += csr(v.M.Rows, v.M.NNZ(), 8)
		case *op.CSR[float32, uint32]:
			total += csr(v.M.Rows, v.M.NNZ(), 4)
		case *op.Stencil:
			total += v.Bytes()
		default:
			t.Fatalf("level %d operator is a %T", k, a)
		}
	}
	for k, itp := range append(slices.Clone(s.Itp), s.SItp...) {
		switch v := itp.(type) {
		case *op.CSRInterp[float64, uint32]:
			total += csr(v.P.Rows, v.P.NNZ(), 8) + csr(v.PT.Rows, v.PT.NNZ(), 8)
		case *op.CSRInterp[float32, uint32]:
			total += csr(v.P.Rows, v.P.NNZ(), 4) + csr(v.PT.Rows, v.PT.NNZ(), 4)
		case *op.OrderedInterp[float64, uint32]:
			total += 12*len(v.Vals) + 4*len(v.Row) + 12*len(v.Class) + csr(v.PT.Rows, v.PT.NNZ(), 8)
		case *op.OrderedInterp[float32, uint32]:
			total += 8*len(v.Vals) + 4*len(v.Row) + 12*len(v.Class) + csr(v.PT.Rows, v.PT.NNZ(), 4)
		case *op.GeomInterp:
			total += v.Bytes()
		default:
			t.Fatalf("interpolant view %d is a %T", k, itp)
		}
	}
	return total
}

// TestEngineViewsAreUint32: on every construction path (New, NewOperator
// on a matrix and on a stencil, NewFromHierarchy, CoarseFloat32 and
// Sparsify) every CSR view the engine runs on is a uint32 instantiation,
// so HierarchyBytes is the CSR formula of csrFormulaBytes: 12 bytes per
// float64 nonzero and 8 per float32 one, 4 per row pointer, and 4 per
// row of a row-length-ordered P̄ in place of its row pointers.
func TestEngineViewsAreUint32(t *testing.T) {
	smo := smoother.DefaultConfig()
	f32 := amg.DefaultOptions()
	f32.CoarsePrecision = op.CoarseFloat32
	sparsify := amg.DefaultOptions()
	sparsify.Sparsify = true
	fromHierarchy := func(a *sparse.CSR, opt amg.Options) (*Engine, error) {
		h, _, err := amg.BuildWithStats(a, opt)
		if err != nil {
			return nil, err
		}
		return NewFromHierarchy(h, smo)
	}
	for _, tc := range []struct {
		name  string
		build func() (*Engine, error)
	}{
		{"New", func() (*Engine, error) { return New(grid.Laplacian7pt(12), amg.DefaultOptions(), smo) }},
		{"NewOperator-csr", func() (*Engine, error) {
			return NewOperator(op.FromCSR(grid.Laplacian27pt(10)), amg.DefaultOptions(), smo)
		}},
		{"NewOperator-stencil", func() (*Engine, error) { return NewOperator(op.NewStencil7(34), amg.DefaultOptions(), smo) }},
		{"NewFromHierarchy", func() (*Engine, error) { return fromHierarchy(grid.Laplacian7pt(12), amg.DefaultOptions()) }},
		{"NewFromHierarchy-f32", func() (*Engine, error) { return fromHierarchy(grid.Laplacian7pt(12), f32) }},
		{"CoarseFloat32", func() (*Engine, error) { return New(grid.Laplacian27pt(10), f32, smo) }},
		{"CoarseFloat32-stencil", func() (*Engine, error) { return NewOperator(op.NewStencil7(34), f32, smo) }},
		{"Sparsify", func() (*Engine, error) { return New(grid.Laplacian27pt(16), sparsify, smo) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.HierarchyBytes(), csrFormulaBytes(t, s); got != want {
				t.Errorf("HierarchyBytes = %d, want %d by the CSR formula", got, want)
			}
			if tc.name == "Sparsify" && s.Setup.DroppedNNZ() == 0 {
				t.Error("no sparsified level kept: its uint32 twin went unchecked")
			}
		})
	}
}
