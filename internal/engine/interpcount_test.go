package engine

import (
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

// interpCounts tallies the prolongations run through counted
// interpolants: Apply and ApplyRange (a full or row-range P e) apart from
// ApplyAdd (e += P e). Restrictions are not counted.
type interpCounts struct{ apply, applyAdd int }

type countingInterp struct {
	op.Interp
	c *interpCounts
}

func (ci countingInterp) Apply(fine, coarse []float64) {
	ci.c.apply++
	ci.Interp.Apply(fine, coarse)
}

func (ci countingInterp) ApplyAdd(fine, coarse []float64) {
	ci.c.applyAdd++
	ci.Interp.ApplyAdd(fine, coarse)
}

func (ci countingInterp) ApplyRange(fine, coarse []float64, lo, hi int) {
	ci.c.apply++
	ci.Interp.ApplyRange(fine, coarse, lo, hi)
}

// countInterps wraps every interpolant of s (plain and smoothed) so its
// prolongations are tallied in the returned counts.
func countInterps(s *Engine) *interpCounts {
	c := &interpCounts{}
	for k := range s.Itp {
		s.Itp[k] = countingInterp{s.Itp[k], c}
		s.SItp[k] = countingInterp{s.SItp[k], c}
	}
	return c
}

// TestCyclesApplyEachInterpolantOnce pins the cost of one additive or
// AFACx cycle at L−1 interpolant applies: the grid corrections are summed
// coarsest-first (e_{k−1} += P e_k), not prolongated to the finest level
// one grid at a time (L(L−1)/2 applies). AFACx additionally applies P once
// per grid k < L−1 inside its modified right-hand side; those L−1 Applys
// are counted apart from the accumulation's ApplyAdds. The per-grid
// GridCorrection, which the asynchronous runtimes run independently per
// grid, still prolongates grid k's correction through all k interpolants.
func TestCyclesApplyEachInterpolantOnce(t *testing.T) {
	for _, tc := range []namedEngine{
		{"csr-7pt", setup7pt(t, 16, smoother.DefaultConfig())},
		{"stencil7-f32-coarse", setupStencil7F32(t, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			l := s.NumLevels()
			if l < 3 {
				t.Fatalf("%d levels, want >= 3 (L−1 must differ from L(L−1)/2)", l)
			}
			c := countInterps(s)
			n := s.LevelSize(0)
			b := grid.RandomRHS(n, 31)
			w := s.NewWorkspace()
			for _, cyc := range []struct {
				name            string
				run             func(x []float64)
				apply, applyAdd int
			}{
				{"multadd", func(x []float64) { s.MultaddCycle(x, b, w) }, 0, l - 1},
				{"multadd-symmetrized", func(x []float64) { s.MultaddCycleSymmetrized(x, b, w) }, 0, l - 1},
				{"bpx", func(x []float64) { s.BPXCycle(x, b, w) }, 0, l - 1},
				{"multadd-damped", func(x []float64) { s.additiveCycle(x, b, w, s.SItp, false, 0.8) }, 0, l - 1},
				{"precondition-multadd", func(x []float64) { s.PreconditionCycle(Multadd, x, b, w) }, 0, l - 1},
				{"afacx", func(x []float64) { s.AFACxCycle(x, b, w) }, l - 1, l - 1},
				{"afacx-damped", func(x []float64) { s.afacxCycle(x, b, w, 1, 1, 0.8) }, l - 1, l - 1},
			} {
				*c = interpCounts{}
				cyc.run(make([]float64, n))
				if c.apply != cyc.apply || c.applyAdd != cyc.applyAdd {
					t.Errorf("%s on %d levels: %d Apply + %d ApplyAdd, want %d + %d",
						cyc.name, l, c.apply, c.applyAdd, cyc.apply, cyc.applyAdd)
				}
			}

			cw := s.NewCorrWorkspace()
			out := make([]float64, n)
			for k := 0; k < l; k++ {
				*c = interpCounts{}
				s.GridCorrection(Multadd, k, out, b, 1, cw)
				if c.apply != k || c.applyAdd != 0 {
					t.Errorf("GridCorrection(Multadd, %d): %d Apply + %d ApplyAdd, want %d + 0", k, c.apply, c.applyAdd, k)
				}
			}
		})
	}
}
