// Package dense provides a small dense direct solver used for the exact
// solve on the coarsest grid of the multigrid hierarchy (the role LAPACK
// plays in hypre/BoomerAMG). It implements LU factorization with partial
// pivoting and forward/back substitution.
package dense

import (
	"errors"
	"math"

	"asyncmg/internal/sparse"
)

// LU holds an LU factorization with partial pivoting of an n-by-n matrix:
// P A = L U with unit lower-triangular L and upper-triangular U packed into
// one dense array.
type LU struct {
	n    int
	lu   []float64 // row-major packed L\U
	perm []int     // row permutation: solve uses b[perm[i]]
}

// ErrSingular is returned when factorization encounters an exactly zero
// pivot column.
var ErrSingular = errors.New("dense: matrix is singular")

// Factor computes the LU factorization of the sparse matrix a expanded to
// dense form. Intended for the small coarsest-grid systems (a few hundred
// rows at most).
func Factor[I sparse.Index](a *sparse.Matrix[float64, I]) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("dense: Factor requires a square matrix")
	}
	n := a.Rows
	f := &LU{n: n, lu: make([]float64, n*n), perm: make([]int, n)}
	for i := 0; i < n; i++ {
		f.perm[i] = i
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			f.lu[i*n+int(a.ColIdx[p])] = a.Vals[p]
		}
	}
	if err := f.factorize(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *LU) factorize() error {
	n := f.n
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k at/below row k.
		pivRow, pivVal := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > pivVal {
				pivRow, pivVal = i, v
			}
		}
		if pivVal == 0 {
			return ErrSingular
		}
		if pivRow != k {
			f.perm[k], f.perm[pivRow] = f.perm[pivRow], f.perm[k]
			rk := f.lu[k*n : (k+1)*n]
			rp := f.lu[pivRow*n : (pivRow+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri := f.lu[i*n : (i+1)*n]
			rk := f.lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// SolveScratch computes x = A⁻¹ b with a caller-provided
// forward-substitution scratch vector y (len >= n, clobbered), for
// allocation-free repeated solves. x and b may alias; y must alias
// neither. len(x) == len(b) == n.
func (f *LU) SolveScratch(x, b, y []float64) {
	n := f.n
	// Apply permutation while forward-substituting L y = P b.
	y = y[:n]
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		ri := f.lu[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s
	}
	// Back-substitute U x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		ri := f.lu[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}
