// Package sparsetest holds the sparse-matrix reference kernels that the
// tests of several packages compare against. No binary links it.
package sparsetest

import "asyncmg/internal/sparse"

// GaussSeidelSweepRange performs one forward Gauss-Seidel sweep on the row
// block [lo, hi) of A x = b, reading the most recent values of x everywhere
// (including outside the block): the serial reference for the hybrid JGS
// and async GS smoothers.
func GaussSeidelSweepRange(a *sparse.CSR, x, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i {
				diag = a.Vals[p]
			} else {
				s -= a.Vals[p] * x[j]
			}
		}
		if diag != 0 {
			x[i] = s / diag
		}
	}
}
