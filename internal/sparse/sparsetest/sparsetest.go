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

// ScaleRows multiplies row i of a by s[i] in place.
func ScaleRows(a *sparse.CSR, s []float64) {
	if len(s) != a.Rows {
		panic("sparsetest: ScaleRows length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Vals[p] *= s[i]
		}
	}
}

// Add returns A + B for matrices of identical shape.
func Add(a, b *sparse.CSR) *sparse.CSR {
	return addScaled(a, b, 1)
}

// Sub returns A - B for matrices of identical shape.
func Sub(a, b *sparse.CSR) *sparse.CSR {
	return addScaled(a, b, -1)
}

// SmoothedInterp is the smoothed interpolant P̄ = P − diag(s)·A·P formed
// the way the engine's one merge pass must round it:
// Sub(P, ScaleRows(MatMul(A, P), s)).
func SmoothedInterp(a, p *sparse.CSR, s []float64) *sparse.CSR {
	ap := sparse.MatMul(a, p)
	ScaleRows(ap, s)
	return Sub(p, ap)
}

// addScaled returns A + beta·B over the union of the two patterns.
func addScaled(a, b *sparse.CSR, beta float64) *sparse.CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparsetest: Add/Sub shape mismatch")
	}
	// nnz(A)+nnz(B) bounds the union of the two sparsity patterns, so the
	// output never regrows (overlapping columns only make it smaller).
	bound := a.NNZ() + b.NNZ()
	c := &sparse.CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, 0, bound),
		Vals:   make([]float64, 0, bound),
	}
	for i := 0; i < a.Rows; i++ {
		pa, pb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.ColIdx[pa] < b.ColIdx[pb]):
				c.ColIdx = append(c.ColIdx, a.ColIdx[pa])
				c.Vals = append(c.Vals, a.Vals[pa])
				pa++
			case pa >= ea || b.ColIdx[pb] < a.ColIdx[pa]:
				c.ColIdx = append(c.ColIdx, b.ColIdx[pb])
				c.Vals = append(c.Vals, beta*b.Vals[pb])
				pb++
			default: // equal columns
				c.ColIdx = append(c.ColIdx, a.ColIdx[pa])
				c.Vals = append(c.Vals, a.Vals[pa]+beta*b.Vals[pb])
				pa++
				pb++
			}
		}
		c.RowPtr[i+1] = len(c.Vals)
	}
	return c
}
