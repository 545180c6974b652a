// Package grid generates the finite-difference test matrices used in the
// paper's evaluation: the 3-D Laplacian on an N×N×N cube discretized with
// the 7-point and 27-point centered difference stencils (the "7pt" and
// "27pt" test sets), with homogeneous Dirichlet boundary conditions
// eliminated from the system.
package grid

import (
	"math/rand"

	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// Laplacian7pt returns the 7-point 3-D Laplacian on an n×n×n grid of
// interior points: diagonal 6, off-diagonals -1 toward the six axis
// neighbours. This matches the paper's 7pt test set (n=30 gives 27,000 rows
// and 183,600 nonzeros). It is the materialized op.NewStencil7, the one
// definition of the operator.
func Laplacian7pt(n int) *sparse.CSR { return op.NewStencil7(n).CSR() }

// Laplacian27pt returns the 27-point 3-D Laplacian on an n×n×n grid of
// interior points: diagonal 26, and -1 toward each of the (up to) 26
// neighbours in the 3×3×3 stencil box. This matches the paper's 27pt test
// set (n=30 gives 27,000 rows and 681,472 nonzeros). It is the
// materialized op.NewStencil27.
func Laplacian27pt(n int) *sparse.CSR { return op.NewStencil27(n).CSR() }

// RandomRHS returns a right-hand side with entries uniform in [-1, 1],
// matching the paper's test protocol, reproducible under seed.
func RandomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}
