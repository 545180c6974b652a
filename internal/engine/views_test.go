package engine

import (
	"slices"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

// TestEnginesShareHierarchyViews: NewFromHierarchy leaves the hierarchy's
// level views as the setup made them, so two engines built on one
// hierarchy run the same Multadd bit for bit; New and NewOperator, whose
// hierarchy is their own, leave each level holding the engine's views.
// Assembled and stencil fine levels, float64 and CoarseFloat32.
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
			var hists [2][]float64
			for i := range hists {
				s, err := NewFromHierarchy(h, smo)
				if err != nil {
					t.Fatal(err)
				}
				for k, lev := range h.Levels {
					if lev.Op != before[k].Op || lev.Itp != before[k].Itp {
						t.Fatalf("engine %d: level %d holds %T/%T, the setup left %T/%T", i, k, lev.Op, lev.Itp, before[k].Op, before[k].Itp)
					}
				}
				_, hists[i] = s.Solve(Multadd, grid.RandomRHS(s.LevelSize(0), 7), 6)
			}
			if !slices.Equal(hists[0], hists[1]) {
				t.Errorf("Multadd histories differ on one hierarchy: %v vs %v", hists[0], hists[1])
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
