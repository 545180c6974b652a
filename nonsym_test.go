package asyncmg_test

import (
	"math"
	"testing"

	"asyncmg"
	"asyncmg/internal/sparse/sparsetest"
	"asyncmg/internal/vec"
)

// upwindConvectionDiffusion7pt assembles the 3D convection-diffusion
// operator -Δu + β·∇u on an n³ grid with first-order upwind differences
// for the convection term (flow along +x, +y). The upwind bias makes the
// matrix genuinely non-symmetric while keeping it an M-matrix, so the
// hierarchy build and the smoothers stay well-posed.
func upwindConvectionDiffusion7pt(n int, beta float64) *asyncmg.Matrix {
	idx := func(i, j, k int) int { return (i*n+j)*n + k }
	coo := asyncmg.NewCOO(n*n*n, n*n*n, 9*n*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				row := idx(i, j, k)
				diag := 6.0 + 2*beta // diffusion + upwind convection in x and y
				if i > 0 {
					coo.Add(row, idx(i-1, j, k), -1-beta) // upwind neighbor
				}
				if i < n-1 {
					coo.Add(row, idx(i+1, j, k), -1)
				}
				if j > 0 {
					coo.Add(row, idx(i, j-1, k), -1-beta)
				}
				if j < n-1 {
					coo.Add(row, idx(i, j+1, k), -1)
				}
				if k > 0 {
					coo.Add(row, idx(i, j, k-1), -1)
				}
				if k < n-1 {
					coo.Add(row, idx(i, j, k+1), -1)
				}
				coo.Add(row, row, diag)
			}
		}
	}
	return coo.ToCSR()
}

// TestNonSymmetricCycleMatchesFacade drives the engine's cycle primitives
// by hand on a non-symmetric upwind convection-diffusion setup and checks
// the iterate and residual history agree with the façade's SolveSync to
// 1e-12 for AFACx and Multadd — guarding the shared cycle engine against
// symmetric-only assumptions and façade/primitive drift.
func TestNonSymmetricCycleMatchesFacade(t *testing.T) {
	a := upwindConvectionDiffusion7pt(9, 0.8)
	if sparsetest.IsSymmetric(a, 1e-14) {
		t.Fatal("test operator is symmetric; upwind bias lost")
	}
	s, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if s.NumLevels() < 2 {
		t.Fatalf("want a multilevel hierarchy, got %d levels", s.NumLevels())
	}
	b := asyncmg.RandomRHS(a.Rows, 11)
	nb := vec.Norm2(b)
	const tmax = 12
	for _, m := range []asyncmg.Method{asyncmg.Multadd, asyncmg.AFACx} {
		x, hist := asyncmg.SolveSync(s, m, b, tmax)
		if len(hist) != tmax+1 {
			t.Fatalf("%v: façade stopped early (history length %d)", m, len(hist))
		}
		if hist[tmax] >= hist[0] {
			t.Fatalf("%v does not converge on the non-symmetric operator: rel res %v after %d cycles",
				m, hist[tmax], tmax)
		}

		// Hand-driven engine primitives: same cycles, same workspace pool.
		got := make([]float64, a.Rows)
		r := make([]float64, a.Rows)
		w := s.AcquireWorkspace()
		for c := 0; c < tmax; c++ {
			s.Cycle(m, got, b, w)
			a.Residual(r, b, got)
			rel := vec.Norm2(r) / nb
			if d := math.Abs(rel - hist[c+1]); d > 1e-12*math.Max(1, hist[c+1]) {
				t.Fatalf("%v cycle %d: hand-driven rel res %v vs façade %v (|Δ| = %g)",
					m, c+1, rel, hist[c+1], d)
			}
		}
		s.ReleaseWorkspace(w)
		for i := range x {
			if d := math.Abs(got[i] - x[i]); d > 1e-12*math.Max(1, math.Abs(x[i])) {
				t.Fatalf("%v iterate differs at %d: %v vs %v", m, i, got[i], x[i])
			}
		}
	}
}
