package engine

import (
	"context"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
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
				{"multadd", func(x []float64) { s.Cycle(Multadd, x, b, w) }, 0, l - 1},
				{"multadd-symmetrized", func(x []float64) { s.cycle(Multadd, x, b, w, fromIterate, true) }, 0, l - 1},
				{"bpx", func(x []float64) { s.Cycle(BPX, x, b, w) }, 0, l - 1},
				{"multadd-damped", func(x []float64) { dampedCycle(s, Multadd, x, b, w, 0.8) }, 0, l - 1},
				{"afacx", func(x []float64) { s.Cycle(AFACx, x, b, w) }, l - 1, l - 1},
				{"afacx-damped", func(x []float64) { dampedCycle(s, AFACx, x, b, w, 0.8) }, l - 1, l - 1},
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

// countingOp tallies the Residual calls (full and row-range) the engine
// makes on one level's operator. The smoothers hold their own operator,
// so their sweeps are not counted.
type countingOp struct {
	op.Operator
	residuals *int
}

func (co countingOp) Residual(r, b, x []float64) {
	*co.residuals++
	co.Operator.Residual(r, b, x)
}

func (co countingOp) ResidualRange(r, b, x []float64, lo, hi int) {
	*co.residuals++
	co.Operator.ResidualRange(r, b, x, lo, hi)
}

// preconditionOracle is the zero-guess cycle written the long way: zero z,
// then run the solver's cycle on it, fine residual r − A·0 and z = 0 + e₀
// included.
func preconditionOracle(s *Engine, m Method, symmetrized bool, z, r []float64, w *Workspace) {
	vec.Zero(z)
	s.cycle(m, z, r, w, fromIterate, symmetrized)
}

// preconditionEngines are the storage forms a preconditioner runs on, each
// with at least three levels: assembled float64 CSR, assembled with
// float32 coarse levels, and the matrix-free Stencil7 fine level with
// float32 coarse levels.
func preconditionEngines(t *testing.T) []namedEngine {
	t.Helper()
	f32 := amg.DefaultOptions()
	f32.CoarsePrecision = op.CoarseFloat32
	s27, err := New(grid.Laplacian27pt(16), f32, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []namedEngine{
		{"csr-7pt", setup7pt(t, 16, smoother.DefaultConfig())},
		{"csr-27pt-f32-coarse", s27},
		{"stencil7-f32-coarse", setupStencil7F32(t, 32)},
	}
}

// sentinel marks workspace entries a cycle must not touch.
const sentinel = -1.25e300

// TestPreconditionCycleSkipsFineResidual pins the zero-guess form of every
// preconditioner cycle: it equals the oracle (zero z, then the solver's
// cycle) entry for entry with ==, makes exactly one fewer fine-level
// Residual call than the oracle, applies the interpolants as often, and
// leaves the workspace's level-0 residual and correction untouched.
func TestPreconditionCycleSkipsFineResidual(t *testing.T) {
	for _, tc := range preconditionEngines(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			l := s.NumLevels()
			if l < 3 {
				t.Fatalf("%d levels, want >= 3", l)
			}
			c := countInterps(s)
			residuals := 0
			s.Ops[0] = countingOp{s.Ops[0], &residuals}
			n := s.LevelSize(0)
			r := grid.RandomRHS(n, 53)
			w := s.NewWorkspace()
			// The fine-level Residual calls PreconditionCycle makes (the
			// oracle makes one more: the r − A·0 it starts from) and the
			// interpolant applies both make. Mult's one is its down-leg
			// r − A e₀.
			for _, f := range []struct {
				name                       string
				m                          Method
				symmetrized                bool
				residuals, apply, applyAdd int
			}{
				{"mult", Mult, false, 1, 0, l - 1},
				{"multadd", Multadd, false, 0, 0, l - 1},
				{"multadd-symmetrized", Multadd, true, 0, 0, l - 1},
				{"afacx", AFACx, false, 0, l - 1, l - 1},
				{"bpx", BPX, false, 0, 0, l - 1},
			} {
				// Both start from a z full of garbage: neither may read it.
				want := grid.RandomRHS(n, 54)
				residuals, *c = 0, interpCounts{}
				preconditionOracle(s, f.m, f.symmetrized, want, r, w)
				oracleResiduals, oracleItp := residuals, *c

				got := grid.RandomRHS(n, 55)
				residuals, *c = 0, interpCounts{}
				// Level 0's own residual and correction slots hold a
				// sentinel: r and z stand in for them, so neither is
				// copied into or out of the workspace.
				for i := range w.r[0] {
					w.r[0][i], w.e[0][i] = sentinel, sentinel
				}
				s.PreconditionCycle(f.m, f.symmetrized, got, r, w)
				for i := range w.r[0] {
					if w.r[0][i] != sentinel || w.e[0][i] != sentinel {
						t.Fatalf("%s: workspace level 0 r[%d] = %v, e[%d] = %v, want the sentinel untouched",
							f.name, i, w.r[0][i], i, w.e[0][i])
					}
				}

				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: z[%d] = %v, oracle %v", f.name, i, got[i], want[i])
					}
				}
				if residuals != f.residuals || oracleResiduals != f.residuals+1 {
					t.Errorf("%s: %d fine-level Residual calls (oracle %d), want %d (oracle %d)",
						f.name, residuals, oracleResiduals, f.residuals, f.residuals+1)
				}
				if c.apply != f.apply || c.applyAdd != f.applyAdd || *c != oracleItp {
					t.Errorf("%s: %d Apply + %d ApplyAdd (oracle %d + %d), want %d + %d",
						f.name, c.apply, c.applyAdd, oracleItp.apply, oracleItp.applyAdd, f.apply, f.applyAdd)
				}
			}
		})
	}
}

// solveOracle is the cycling loop written the long way: every cycle
// computes its own fine residual b − A x, and the history sample computes
// it again into a vector of its own.
func solveOracle(s *Engine, b []float64, tmax int, cycle func(x []float64, w *Workspace)) (x, hist []float64) {
	x, r := make([]float64, len(b)), make([]float64, len(b))
	w := s.NewWorkspace()
	nb := vec.Norm2(b)
	hist = []float64{1}
	for t := 0; t < tmax; t++ {
		cycle(x, w)
		s.Ops[0].Residual(r, b, x)
		hist = append(hist, vec.Norm2(r)/nb)
		if vec.HasNonFinite(x) {
			break
		}
	}
	return x, hist
}

// TestSolveComputesOneFineResidualPerCycle pins the cycling loop's one
// fine residual per cycle: Solve, SolveCtx and SolveDamped start every
// cycle from the residual the loop formed before it (b − A·0, then each
// history residual), so they equal the oracle (each cycle computing its
// own) in history and iterate with ==, and make tmax − 1 fewer
// fine-level Residual calls. RelRes of the final iterate is the last
// history entry.
func TestSolveComputesOneFineResidualPerCycle(t *testing.T) {
	const tmax, omega = 6, 0.8
	for _, tc := range []namedEngine{
		{"csr-7pt", setup7pt(t, 16, smoother.DefaultConfig())},
		{"stencil7-f32-coarse", setupStencil7F32(t, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			residuals := 0
			s.Ops[0] = countingOp{s.Ops[0], &residuals}
			b := grid.RandomRHS(s.LevelSize(0), 61)
			type run struct {
				name  string
				solve func() (x, hist []float64)
				cycle func(x []float64, w *Workspace)
			}
			var runs []run
			for _, m := range []Method{Mult, Multadd, AFACx, BPX} {
				cycle := func(x []float64, w *Workspace) { s.Cycle(m, x, b, w) }
				runs = append(runs,
					run{"Solve/" + m.String(), func() ([]float64, []float64) { return s.Solve(m, b, tmax) }, cycle},
					run{"SolveCtx/" + m.String(), func() ([]float64, []float64) {
						x, hist, err := s.SolveCtx(context.Background(), m, b, tmax)
						if err != nil {
							t.Fatal(err)
						}
						return x, hist
					}, cycle})
			}
			runs = append(runs,
				run{"SolveDamped/Multadd", func() ([]float64, []float64) { return s.SolveDamped(Multadd, b, tmax, omega) },
					func(x []float64, w *Workspace) { dampedCycle(s, Multadd, x, b, w, omega) }},
				run{"SolveDamped/AFACx", func() ([]float64, []float64) { return s.SolveDamped(AFACx, b, tmax, omega) },
					func(x []float64, w *Workspace) { dampedCycle(s, AFACx, x, b, w, omega) }})
			for _, r := range runs {
				residuals = 0
				wantX, wantHist := solveOracle(s, b, tmax, r.cycle)
				oracle := residuals
				residuals = 0
				x, hist := r.solve()
				if len(hist) != tmax+1 || len(wantHist) != tmax+1 {
					t.Fatalf("%s: %d history entries (oracle %d), want %d", r.name, len(hist), len(wantHist), tmax+1)
				}
				for i := range wantHist {
					if hist[i] != wantHist[i] {
						t.Fatalf("%s: hist[%d] = %v, oracle %v", r.name, i, hist[i], wantHist[i])
					}
				}
				for i := range wantX {
					if x[i] != wantX[i] {
						t.Fatalf("%s: x[%d] = %v, oracle %v", r.name, i, x[i], wantX[i])
					}
				}
				if residuals != oracle-(tmax-1) {
					t.Errorf("%s: %d fine-level Residual calls, want %d (oracle %d − %d)",
						r.name, residuals, oracle-(tmax-1), oracle, tmax-1)
				}
				if got := s.RelRes(b, x); got != hist[tmax] {
					t.Errorf("%s: RelRes = %v, last history entry %v", r.name, got, hist[tmax])
				}
			}
		})
	}
}
