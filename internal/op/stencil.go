package op

import (
	"fmt"

	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Stencil7 is the matrix-free 7-point 3-D Laplacian on an n×n×n grid of
// interior points (diagonal 6, off-diagonals −1 toward the six axis
// neighbours, Dirichlet boundaries eliminated) — exactly the operator
// grid.Laplacian7pt materializes, without the matrix. Row r maps to grid
// point (i,j,k) via r = (i·n+j)·n+k.
//
// Every kernel visits a row's stencil entries in the same ascending-column
// order as the CSR generator ((i−1),(j−1),(k−1),diag,(k+1),(j+1),(i+1))
// and uses the same expression shapes as the CSR kernels (`s += v·x[c]`,
// `s -= v·x[c]`, `s -= v·(d[c]·r[c])`), so results are bitwise-identical
// to the CSR path at any worker count.
type Stencil7 struct {
	n int
}

// NewStencil7 returns the matrix-free 7-point Laplacian on an n×n×n grid.
func NewStencil7(n int) *Stencil7 {
	if n < 1 {
		panic(fmt.Sprintf("op: Stencil7 needs n >= 1, got %d", n))
	}
	return &Stencil7{n: n}
}

// N is the grid edge length.
func (s *Stencil7) N() int    { return s.n }
func (s *Stencil7) Rows() int { return s.n * s.n * s.n }
func (s *Stencil7) Cols() int { return s.n * s.n * s.n }

// NNZEquivalent is the nonzero count of the materialized stencil:
// 7n³ − 6n².
func (s *Stencil7) NNZEquivalent() int { return 7*s.n*s.n*s.n - 6*s.n*s.n }

// Bytes is zero: the operator holds no matrix storage.
func (s *Stencil7) Bytes() int { return 0 }

const (
	lap7Diag = 6.0
	lap7Off  = -1.0
)

func (s *Stencil7) ApplyRange(y, x []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for r := lo; r < hi; r++ {
		t := 0.0
		if i > 0 {
			t += lap7Off * x[r-nn]
		}
		if j > 0 {
			t += lap7Off * x[r-n]
		}
		if k > 0 {
			t += lap7Off * x[r-1]
		}
		t += lap7Diag * x[r]
		if k < n-1 {
			t += lap7Off * x[r+1]
		}
		if j < n-1 {
			t += lap7Off * x[r+n]
		}
		if i < n-1 {
			t += lap7Off * x[r+nn]
		}
		y[r] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil7) ResidualRange(r, b, x []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := b[row]
		if i > 0 {
			t -= lap7Off * x[row-nn]
		}
		if j > 0 {
			t -= lap7Off * x[row-n]
		}
		if k > 0 {
			t -= lap7Off * x[row-1]
		}
		t -= lap7Diag * x[row]
		if k < n-1 {
			t -= lap7Off * x[row+1]
		}
		if j < n-1 {
			t -= lap7Off * x[row+n]
		}
		if i < n-1 {
			t -= lap7Off * x[row+nn]
		}
		r[row] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil7) Apply(y, x []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KApply, s, y, x)
}

func (s *Stencil7) Residual(r, b, x []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KResidual, s, r, b, x)
}

func (s *Stencil7) Diag() []float64 {
	d := make([]float64, s.Rows())
	for i := range d {
		d[i] = lap7Diag
	}
	return d
}

// RowL1Norms is 6 + (number of neighbours); all terms are small integers,
// so any summation order is exact and matches the CSR row sums.
func (s *Stencil7) RowL1Norms() []float64 {
	n := s.n
	l1 := make([]float64, s.Rows())
	i, j, k := 0, 0, 0
	for r := range l1 {
		cnt := 0
		if i > 0 {
			cnt++
		}
		if j > 0 {
			cnt++
		}
		if k > 0 {
			cnt++
		}
		if k < n-1 {
			cnt++
		}
		if j < n-1 {
			cnt++
		}
		if i < n-1 {
			cnt++
		}
		l1[r] = lap7Diag + float64(cnt)
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
	return l1
}

func (s *Stencil7) JacobiResidualRange(e, t, invDiag, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		e[row] = invDiag[row] * r[row]
		u := r[row]
		if i > 0 {
			u -= lap7Off * (invDiag[row-nn] * r[row-nn])
		}
		if j > 0 {
			u -= lap7Off * (invDiag[row-n] * r[row-n])
		}
		if k > 0 {
			u -= lap7Off * (invDiag[row-1] * r[row-1])
		}
		u -= lap7Diag * (invDiag[row] * r[row])
		if k < n-1 {
			u -= lap7Off * (invDiag[row+1] * r[row+1])
		}
		if j < n-1 {
			u -= lap7Off * (invDiag[row+n] * r[row+n])
		}
		if i < n-1 {
			u -= lap7Off * (invDiag[row+nn] * r[row+nn])
		}
		t[row] = u
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil7) FusedJacobiResidual(e, t, invDiag, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KJacobiResidual, s, e, t, invDiag, r)
}

func (s *Stencil7) ScaledResidualRange(w, scale, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := 0.0
		if i > 0 {
			t += lap7Off * r[row-nn]
		}
		if j > 0 {
			t += lap7Off * r[row-n]
		}
		if k > 0 {
			t += lap7Off * r[row-1]
		}
		t += lap7Diag * r[row]
		if k < n-1 {
			t += lap7Off * r[row+1]
		}
		if j < n-1 {
			t += lap7Off * r[row+n]
		}
		if i < n-1 {
			t += lap7Off * r[row+nn]
		}
		w[row] = r[row] - scale[row]*t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil7) SmoothedResidualRange(w, scale, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := r[row]
		if i > 0 {
			t -= lap7Off * (scale[row-nn] * r[row-nn])
		}
		if j > 0 {
			t -= lap7Off * (scale[row-n] * r[row-n])
		}
		if k > 0 {
			t -= lap7Off * (scale[row-1] * r[row-1])
		}
		t -= lap7Diag * (scale[row] * r[row])
		if k < n-1 {
			t -= lap7Off * (scale[row+1] * r[row+1])
		}
		if j < n-1 {
			t -= lap7Off * (scale[row+n] * r[row+n])
		}
		if i < n-1 {
			t -= lap7Off * (scale[row+nn] * r[row+nn])
		}
		w[row] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil7) ScaledResidual(w, scale, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KScaledResidual, s, w, scale, r)
}

func (s *Stencil7) SmoothedResidual(w, scale, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KSmoothedResidual, s, w, scale, r)
}

// ResidualAtomicRange is the stencil form of the asynchronous runtime's
// global-residual refresh against a shared atomic iterate.
func (s *Stencil7) ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := b[row]
		if i > 0 {
			t -= lap7Off * x.Load(row-nn)
		}
		if j > 0 {
			t -= lap7Off * x.Load(row-n)
		}
		if k > 0 {
			t -= lap7Off * x.Load(row-1)
		}
		t -= lap7Diag * x.Load(row)
		if k < n-1 {
			t -= lap7Off * x.Load(row+1)
		}
		if j < n-1 {
			t -= lap7Off * x.Load(row+n)
		}
		if i < n-1 {
			t -= lap7Off * x.Load(row+nn)
		}
		dst.Store(row, t)
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

// Stencil27 is the matrix-free 27-point 3-D Laplacian on an n×n×n grid
// (diagonal 26, −1 toward each of the up-to-26 neighbours in the 3×3×3
// box) — the operator grid.Laplacian27pt materializes. Kernels enumerate
// each row's box in the generator's ascending di/dj/dk order for bitwise
// equality with the CSR path.
type Stencil27 struct {
	n int
}

// NewStencil27 returns the matrix-free 27-point Laplacian on an n×n×n
// grid.
func NewStencil27(n int) *Stencil27 {
	if n < 1 {
		panic(fmt.Sprintf("op: Stencil27 needs n >= 1, got %d", n))
	}
	return &Stencil27{n: n}
}

const (
	lap27Diag = 26.0
	lap27Off  = -1.0
)

// N is the grid edge length.
func (s *Stencil27) N() int    { return s.n }
func (s *Stencil27) Rows() int { return s.n * s.n * s.n }
func (s *Stencil27) Cols() int { return s.n * s.n * s.n }

// NNZEquivalent is the nonzero count of the materialized stencil:
// (3n−2)³.
func (s *Stencil27) NNZEquivalent() int {
	m := 3*s.n - 2
	return m * m * m
}

// Bytes is zero: the operator holds no matrix storage.
func (s *Stencil27) Bytes() int { return 0 }

func (s *Stencil27) ApplyRange(y, x []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := 0.0
		// Interior fast path: all 27 neighbors exist, so the bounds
		// checks and the diagonal branch are hoisted out. The terms are
		// accumulated in the identical (ascending-column) order as the
		// general loop below, keeping the result bitwise-equal.
		if i > 0 && i < n-1 && j > 0 && j < n-1 && k > 0 && k < n-1 {
			p := x[row-nn-n-1 : row-nn+n+2]
			t += lap27Off * p[0]
			t += lap27Off * p[1]
			t += lap27Off * p[2]
			t += lap27Off * p[n]
			t += lap27Off * p[n+1]
			t += lap27Off * p[n+2]
			t += lap27Off * p[2*n]
			t += lap27Off * p[2*n+1]
			t += lap27Off * p[2*n+2]
			p = x[row-n-1 : row+n+2]
			t += lap27Off * p[0]
			t += lap27Off * p[1]
			t += lap27Off * p[2]
			t += lap27Off * p[n]
			t += lap27Diag * p[n+1]
			t += lap27Off * p[n+2]
			t += lap27Off * p[2*n]
			t += lap27Off * p[2*n+1]
			t += lap27Off * p[2*n+2]
			p = x[row+nn-n-1 : row+nn+n+2]
			t += lap27Off * p[0]
			t += lap27Off * p[1]
			t += lap27Off * p[2]
			t += lap27Off * p[n]
			t += lap27Off * p[n+1]
			t += lap27Off * p[n+2]
			t += lap27Off * p[2*n]
			t += lap27Off * p[2*n+1]
			t += lap27Off * p[2*n+2]
			y[row] = t
			if k++; k == n {
				k = 0
				if j++; j == n {
					j = 0
					i++
				}
			}
			continue
		}
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						t += lap27Diag * x[c]
					} else {
						t += lap27Off * x[c]
					}
				}
			}
		}
		y[row] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil27) ResidualRange(r, b, x []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := b[row]
		// Interior fast path; see ApplyRange. Same subtraction order as
		// the general loop, so the residual stays bitwise-equal.
		if i > 0 && i < n-1 && j > 0 && j < n-1 && k > 0 && k < n-1 {
			p := x[row-nn-n-1 : row-nn+n+2]
			t -= lap27Off * p[0]
			t -= lap27Off * p[1]
			t -= lap27Off * p[2]
			t -= lap27Off * p[n]
			t -= lap27Off * p[n+1]
			t -= lap27Off * p[n+2]
			t -= lap27Off * p[2*n]
			t -= lap27Off * p[2*n+1]
			t -= lap27Off * p[2*n+2]
			p = x[row-n-1 : row+n+2]
			t -= lap27Off * p[0]
			t -= lap27Off * p[1]
			t -= lap27Off * p[2]
			t -= lap27Off * p[n]
			t -= lap27Diag * p[n+1]
			t -= lap27Off * p[n+2]
			t -= lap27Off * p[2*n]
			t -= lap27Off * p[2*n+1]
			t -= lap27Off * p[2*n+2]
			p = x[row+nn-n-1 : row+nn+n+2]
			t -= lap27Off * p[0]
			t -= lap27Off * p[1]
			t -= lap27Off * p[2]
			t -= lap27Off * p[n]
			t -= lap27Off * p[n+1]
			t -= lap27Off * p[n+2]
			t -= lap27Off * p[2*n]
			t -= lap27Off * p[2*n+1]
			t -= lap27Off * p[2*n+2]
			r[row] = t
			if k++; k == n {
				k = 0
				if j++; j == n {
					j = 0
					i++
				}
			}
			continue
		}
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						t -= lap27Diag * x[c]
					} else {
						t -= lap27Off * x[c]
					}
				}
			}
		}
		r[row] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil27) Apply(y, x []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KApply, s, y, x)
}

func (s *Stencil27) Residual(r, b, x []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KResidual, s, r, b, x)
}

func (s *Stencil27) Diag() []float64 {
	d := make([]float64, s.Rows())
	for i := range d {
		d[i] = lap27Diag
	}
	return d
}

// RowL1Norms is 26 + (number of neighbours); exact integer sums matching
// the CSR row sums in any order.
func (s *Stencil27) RowL1Norms() []float64 {
	n := s.n
	l1 := make([]float64, s.Rows())
	span := func(a int) int {
		c := 1
		if a > 0 {
			c++
		}
		if a < n-1 {
			c++
		}
		return c
	}
	i, j, k := 0, 0, 0
	for r := range l1 {
		cnt := span(i)*span(j)*span(k) - 1
		l1[r] = lap27Diag + float64(cnt)
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
	return l1
}

func (s *Stencil27) JacobiResidualRange(e, t, invDiag, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		e[row] = invDiag[row] * r[row]
		u := r[row]
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						u -= lap27Diag * (invDiag[c] * r[c])
					} else {
						u -= lap27Off * (invDiag[c] * r[c])
					}
				}
			}
		}
		t[row] = u
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil27) FusedJacobiResidual(e, t, invDiag, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KJacobiResidual, s, e, t, invDiag, r)
}

func (s *Stencil27) ScaledResidualRange(w, scale, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := 0.0
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						t += lap27Diag * r[c]
					} else {
						t += lap27Off * r[c]
					}
				}
			}
		}
		w[row] = r[row] - scale[row]*t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil27) SmoothedResidualRange(w, scale, r []float64, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := r[row]
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						t -= lap27Diag * (scale[c] * r[c])
					} else {
						t -= lap27Off * (scale[c] * r[c])
					}
				}
			}
		}
		w[row] = t
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

func (s *Stencil27) ScaledResidual(w, scale, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KScaledResidual, s, w, scale, r)
}

func (s *Stencil27) SmoothedResidual(w, scale, r []float64) {
	sparse.RunRows(s.NNZEquivalent(), s.Rows(), sparse.KSmoothedResidual, s, w, scale, r)
}

// ResidualAtomicRange is the stencil form of the asynchronous runtime's
// global-residual refresh against a shared atomic iterate.
func (s *Stencil27) ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int) {
	n := s.n
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		t := b[row]
		for di := -1; di <= 1; di++ {
			ii := i + di
			if ii < 0 || ii >= n {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				jj := j + dj
				if jj < 0 || jj >= n {
					continue
				}
				base := (ii*n+jj)*n + k
				for dk := -1; dk <= 1; dk++ {
					kk := k + dk
					if kk < 0 || kk >= n {
						continue
					}
					c := base + dk
					if c == row {
						t -= lap27Diag * x.Load(c)
					} else {
						t -= lap27Off * x.Load(c)
					}
				}
			}
		}
		dst.Store(row, t)
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}
