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
// built on one hierarchy run the same Multadd bit for bit; a float64 P̄
// shares its level's A·P pattern (so no product was formed for it), and a
// level with a CSR interpolant and no A·P is an error. New and
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
			var aps []*sparse.CSR
			for _, lev := range h.Levels {
				if _, csr := lev.Itp.(*op.CSRInterp[float64, int]); csr != (lev.AP != nil) {
					t.Fatalf("level with interpolant %T holds A·P %v", lev.Itp, lev.AP != nil)
				}
				if lev.AP != nil {
					aps = append(aps, sparse.Convert[float64, int](lev.AP)) // a copy
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
					if pbar, ok := itp.(*op.CSRInterp[float64, int]); ok && &pbar.P.ColIdx[0] != &h.Levels[k].AP.ColIdx[0] {
						t.Errorf("engine %d: level %d P̄ does not share its A·P pattern", i, k)
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
			if m := op.AsCSR(tc.a); m != nil {
				if s, err = New(m, tc.opt, smo); err != nil {
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
