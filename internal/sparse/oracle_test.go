package sparse

import (
	"math"
	"sort"
)

// Constructors and conversions this package's tests build their cases
// and oracles from. No binary needs them.

// Clone returns a deep copy of the matrix.
func (a *Matrix[V, I]) Clone() *Matrix[V, I] {
	return &Matrix[V, I]{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]I(nil), a.RowPtr...),
		ColIdx: append([]I(nil), a.ColIdx...),
		Vals:   append([]V(nil), a.Vals...),
	}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *CSR {
	a := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Vals:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = i + 1
		a.ColIdx[i] = i
		a.Vals[i] = 1
	}
	return a
}

// RAP computes the Galerkin coarse-grid operator A_c = Pᵀ A P, forming
// Pᵀ itself (the AMG setup calls RAPWith with its cached transpose).
func RAP(a, p *CSR) *CSR {
	ac, _ := RAPWith(a, p, p.Transpose())
	return ac
}

// ToDense expands the matrix into a dense row-major slice of slices.
func (a *Matrix[V, I]) ToDense() [][]float64 {
	d := make([][]float64, a.Rows)
	flat := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		d[i] = flat[i*a.Cols : (i+1)*a.Cols]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d[i][a.ColIdx[p]] = float64(a.Vals[p])
		}
	}
	return d
}

// At returns the value stored at (i, j), or 0 if no entry exists: a copy
// of sparsetest.At, which this package's tests cannot import.
func (a *Matrix[V, I]) At(i, j int) float64 {
	cols, vals := a.row(i)
	k := sort.Search(len(cols), func(k int) bool { return int(cols[k]) >= j })
	if k < len(cols) && int(cols[k]) == j {
		return float64(vals[k])
	}
	return 0
}

// IsSymmetric reports whether A equals its transpose up to tol, comparing
// entry by entry. A copy of sparsetest.IsSymmetric.
func (a *Matrix[V, I]) IsSymmetric(tol float64) bool {
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
