// Package sparsetest holds the sparse-matrix reference kernels that the
// tests of several packages compare against. No binary links it.
package sparsetest

import (
	"math"
	"sort"

	"asyncmg/internal/sparse"
)

// At returns the value stored at (i, j) of a, or 0 if no entry exists.
func At[V sparse.Value, I sparse.Index](a *sparse.Matrix[V, I], i, j int) float64 {
	cols, vals := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Vals[a.RowPtr[i]:a.RowPtr[i+1]]
	k := sort.Search(len(cols), func(k int) bool { return int(cols[k]) >= j })
	if k < len(cols) && int(cols[k]) == j {
		return float64(vals[k])
	}
	return 0
}

// IsSymmetric reports whether a equals its transpose up to tol, comparing
// entry by entry.
func IsSymmetric[V sparse.Value, I sparse.Index](a *sparse.Matrix[V, I], tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	t := a.Transpose()
	if t.NNZ() != a.NNZ() {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] != t.ColIdx[p] || math.Abs(float64(a.Vals[p]-t.Vals[p])) > tol {
				return false
			}
		}
	}
	return true
}

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
