package sparse_test

import (
	"math/rand"
	"testing"

	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
	"asyncmg/internal/vec"
)

func TestGaussSeidelSweepReducesResidual(t *testing.T) {
	// One GS sweep on a diagonally dominant system must reduce ||b - Ax||.
	rng := rand.New(rand.NewSource(9))
	n := 30
	coo := sparse.NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	r := make([]float64, n)
	a.Residual(r, b, x)
	before := vec.Norm2(r)
	sparsetest.GaussSeidelSweepRange(a, x, b, 0, n)
	a.Residual(r, b, x)
	after := vec.Norm2(r)
	if after >= before {
		t.Errorf("GS sweep did not reduce residual: %g -> %g", before, after)
	}
}
