package engine

import (
	"math"
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// TestMultaddSymmetrizedEqualsMultiplicative verifies the central identity
// of Section II.B.1: Multadd with the symmetrized smoothing matrix
// Λ_k = M̄_k⁻¹ is mathematically EQUAL to the symmetric multiplicative
// V(1,1)-cycle. Because ω-Jacobi and ℓ1-Jacobi have symmetric M, our
// Mult cycle (same M pre and post) is the symmetric cycle, so one
// symmetrized Multadd cycle from the same iterate must reproduce one
// Mult cycle to rounding error. This exercises the entire pipeline — AMG
// setup, Galerkin products, smoothed interpolants, both cycle
// implementations — against an exact mathematical theorem.
func TestMultaddSymmetrizedEqualsMultiplicative(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  smoother.Config
	}{
		{"w-jacobi", smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1}},
		{"l1-jacobi", smoother.Config{Kind: smoother.L1Jacobi, Blocks: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{4, 6, 8} {
				a := grid.Laplacian7pt(n)
				opt := testOptions() // no aggressive coarsening
				s, err := New(a, opt, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if s.NumLevels() < 2 {
					continue
				}
				rows := a.Rows
				b := grid.RandomRHS(rows, int64(n))
				// Start both from the same nonzero iterate.
				x0 := grid.RandomRHS(rows, int64(n)+100)

				xMult := append([]float64(nil), x0...)
				wMult := s.NewWorkspace()
				s.Cycle(Mult, xMult, b, wMult)

				xAdd := append([]float64(nil), x0...)
				wAdd := s.NewWorkspace()
				s.cycle(Multadd, xAdd, b, wAdd, fromIterate, true)

				maxDiff, scale := 0.0, 0.0
				for i := range xMult {
					if d := math.Abs(xMult[i] - xAdd[i]); d > maxDiff {
						maxDiff = d
					}
					if a := math.Abs(xMult[i]); a > scale {
						scale = a
					}
				}
				if maxDiff > 1e-10*(1+scale) {
					t.Errorf("n=%d: symmetrized Multadd differs from multiplicative V(1,1) by %g (scale %g)",
						n, maxDiff, scale)
				}
			}
		})
	}
}

// TestMultaddSymmetrizedManyCycles runs the equivalence over a full solve:
// the residual histories must coincide cycle for cycle.
func TestMultaddSymmetrizedManyCycles(t *testing.T) {
	a := grid.Laplacian7pt(8)
	cfg := smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1}
	s, err := New(a, testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := grid.RandomRHS(n, 3)

	xMult := make([]float64, n)
	xAdd := make([]float64, n)
	wMult := s.NewWorkspace()
	wAdd := s.NewWorkspace()
	r := make([]float64, n)
	for cyc := 0; cyc < 15; cyc++ {
		s.Cycle(Mult, xMult, b, wMult)
		s.cycle(Multadd, xAdd, b, wAdd, fromIterate, true)
		a.Residual(r, b, xMult)
		rm := vec.Norm2(r)
		a.Residual(r, b, xAdd)
		ra := vec.Norm2(r)
		if math.Abs(rm-ra) > 1e-9*(1+rm) {
			t.Fatalf("cycle %d: residuals diverged: mult %g vs symmetrized multadd %g", cyc, rm, ra)
		}
	}
}

// TestApplySymmetrizedFormula checks M̄⁻¹ = 2M⁻¹ − M⁻¹AM⁻¹ entrywise.
func TestApplySymmetrizedFormula(t *testing.T) {
	a := grid.Laplacian7pt(3)
	n := a.Rows
	sm, err := smoother.New(a, smoother.Config{Kind: smoother.WJacobi, Omega: 0.8, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := grid.RandomRHS(n, 5)
	e := make([]float64, n)
	scratch := make([]float64, n)
	sm.ApplySymmetrized(e, r, scratch)

	// Reference: u = M⁻¹r; want = 2u − M⁻¹ A u, with M = D/ω.
	d := a.Diag()
	u := make([]float64, n)
	for i := range u {
		u[i] = 0.8 * r[i] / d[i]
	}
	au := make([]float64, n)
	a.MatVec(au, u)
	for i := range u {
		want := 2*u[i] - 0.8*au[i]/d[i]
		if math.Abs(e[i]-want) > 1e-13 {
			t.Fatalf("e[%d] = %v, want %v", i, e[i], want)
		}
	}
}

// TestApplySymmetrizedPanicsForBlockSmoothers documents the restriction.
func TestApplySymmetrizedPanicsForBlockSmoothers(t *testing.T) {
	a := grid.Laplacian7pt(3)
	sm, err := smoother.New(a, smoother.Config{Kind: smoother.HybridJGS, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := a.Rows
	sm.ApplySymmetrized(make([]float64, n), make([]float64, n), make([]float64, n))
}
