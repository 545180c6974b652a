package op

import (
	"fmt"
	"math"

	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Stencil is a matrix-free constant-coefficient operator on an n×n×n grid
// whose rows reach at most one point along each axis. Row r is grid point
// (i, j, k), r = (i·n+j)·n+k.
//
// It is stored as a class table. Along each axis a coordinate is lo (0),
// in (1 … n−2) or hi (n−1); with n = 1 the one coordinate is lo and is
// clipped on both sides. All rows of one class (c_i, c_j, c_k) ∈
// {lo, in, hi}³ hold the same entries, so the operator stores 27 class rows
// of (offset, value) entries in ascending-column order and nothing that
// grows with n.
//
// NewStencil7 and NewStencil27 clip the Laplacians of package grid per
// class, and Coarsen returns the Galerkin coarse level as a Stencil. Every
// kernel visits a row's entries in the order of the CSR row and uses the
// CSR row kernels' expression shapes (`s += v·x[c]`, `s -= v·x[c]`,
// `s -= v·(d[c]·r[c])`), so it is bitwise-identical to the sparse kernel
// on the materialized matrix (CSR) at any worker count. The interior class
// takes an unrolled path, its coefficients held in locals, when it is the
// 7-point axis pattern or the full 3×3×3 box.
type Stencil struct {
	n       int
	classes [27][]stencilEntry
	nnz     int // nonzeros of the materialized matrix
	entries int // entries over all class rows
	// fast is 7 or 27 when the interior class is the 7-point axis pattern
	// or the full 3×3×3 box, whose coefficients coef holds; 0 otherwise.
	fast int
	coef [27]float64
}

// stencilEntry is one coefficient of a class row: the neighbour's grid
// offset d = (di, dj, dk), the row offset it makes on this grid (an int32
// up to n = 46 340, a grid of 10¹⁴ rows) and the value.
type stencilEntry struct {
	off int32
	d   [3]int8
	v   float64
}

// entryBytes is the size of one stencilEntry.
const entryBytes = 16

// interior is the class index of (in, in, in).
const interior = 13

// axis7 is the 7-point pattern in ascending-column order.
var axis7 = [7][3]int8{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}}

// NewStencil7 returns the 7-point Laplacian on an n×n×n grid (diagonal 6,
// −1 toward each of the up-to-six axis neighbours, Dirichlet boundaries
// eliminated): the operator grid.Laplacian7pt materializes.
func NewStencil7(n int) *Stencil {
	return laplacian(n, 6, func(di, dj, dk int) bool { return di*di+dj*dj+dk*dk <= 1 })
}

// NewStencil27 returns the 27-point Laplacian on an n×n×n grid (diagonal
// 26, −1 toward each of the up-to-26 neighbours in the 3×3×3 box): the
// operator grid.Laplacian27pt materializes.
func NewStencil27(n int) *Stencil {
	return laplacian(n, 26, func(_, _, _ int) bool { return true })
}

// laplacian builds the Laplacian whose row holds the box neighbours keep
// admits, clipped to the grid: −1 off the diagonal, diag on it.
func laplacian(n int, diag float64, keep func(di, dj, dk int) bool) *Stencil {
	if n < 1 {
		panic(fmt.Sprintf("op: stencil needs n >= 1, got %d", n))
	}
	in := func(c int) bool { return c >= 0 && c < n }
	return newStencil(n, func(p [3]int, row []stencilEntry) []stencilEntry {
		for di := -1; di <= 1; di++ {
			for dj := -1; dj <= 1; dj++ {
				for dk := -1; dk <= 1; dk++ {
					if !keep(di, dj, dk) || !in(p[0]+di) || !in(p[1]+dj) || !in(p[2]+dk) {
						continue
					}
					v := -1.0
					if di == 0 && dj == 0 && dk == 0 {
						v = diag
					}
					row = append(row, stencilEntry{d: [3]int8{int8(di), int8(dj), int8(dk)}, v: v})
				}
			}
		}
		return row
	})
}

// newStencil builds the class table of an n×n×n operator from its row
// function, evaluated once per class on the class's representative grid
// point (lo → 0, in → 1, hi → n−1). A class without rows (in when n < 3,
// hi when n = 1) stays empty.
func newStencil(n int, row func(p [3]int, dst []stencilEntry) []stencilEntry) *Stencil {
	s := &Stencil{n: n}
	rep := [3]int{0, 1, n - 1}
	count := [3]int{1, max(n-2, 0), min(n-1, 1)}
	for c := range s.classes {
		ci, cj, ck := c/9, c/3%3, c%3
		rows := count[ci] * count[cj] * count[ck]
		if rows == 0 {
			continue
		}
		es := row([3]int{rep[ci], rep[cj], rep[ck]}, nil)
		for q := range es {
			d := &es[q].d
			es[q].off = int32((int(d[0])*n+int(d[1]))*n + int(d[2]))
		}
		s.classes[c] = es
		s.nnz += rows * len(es)
		s.entries += len(es)
	}
	in := s.classes[interior]
	switch len(in) {
	case 7:
		s.fast = 7
		for q, e := range in {
			if e.d != axis7[q] {
				s.fast = 0
			}
		}
	case 27:
		s.fast = 27 // 27 distinct box offsets in ascending order: the box
	}
	for q, e := range in {
		s.coef[q] = e.v
	}
	return s
}

// class1 is the class of coordinate c along one axis: 0 (lo), 1 (in) or
// 2 (hi).
func (s *Stencil) class1(c int) int {
	switch {
	case c == 0:
		return 0
	case c == s.n-1:
		return 2
	}
	return 1
}

// classOf is the class index of grid point (i, j, k).
func (s *Stencil) classOf(i, j, k int) int { return 9*s.class1(i) + 3*s.class1(j) + s.class1(k) }

// classRuns walks rows [lo, hi) as runs of consecutive rows in one class:
// along each grid line (i, j fixed) the row at k = 0, the rows 1 … n−2 and
// the row at k = n−1.
type classRuns struct {
	s           *Stencil
	lo, hi, end int
	es          []stencilEntry // the current run's class row
	fast        bool           // the run is interior rows with a fast path
}

func (s *Stencil) runs(lo, hi int) classRuns { return classRuns{s: s, hi: lo, end: hi} }

func (r *classRuns) next() bool {
	if r.hi >= r.end {
		return false
	}
	s, n := r.s, r.s.n
	r.lo = r.hi
	k := r.lo % n
	r.hi = r.lo + 1
	if s.class1(k) == 1 {
		r.hi = r.lo + n - 1 - k
	}
	r.hi = min(r.hi, r.end)
	c := s.classOf(r.lo/(n*n), r.lo/n%n, k)
	r.es, r.fast = s.classes[c], c == interior && s.fast != 0
	return true
}

// N is the grid edge length.
func (s *Stencil) N() int    { return s.n }
func (s *Stencil) Rows() int { return s.n * s.n * s.n }
func (s *Stencil) Cols() int { return s.n * s.n * s.n }

// NNZEquivalent is the nonzero count of the materialized matrix (7n³ − 6n²
// for the 7-point Laplacian, (3n−2)³ for the 27-point one).
func (s *Stencil) NNZEquivalent() int { return s.nnz }

// Bytes is the class table: at most 27 rows of 27 entries, whatever n.
func (s *Stencil) Bytes() int { return entryBytes * s.entries }

// RoundFloat32 returns a copy whose coefficients are rounded to float32,
// exactly as NewCSR32 rounds the materialized matrix: the mixed-precision
// view of a coarse level, still accumulated in float64.
func (s *Stencil) RoundFloat32() *Stencil {
	r := *s
	for c, es := range s.classes {
		r.classes[c] = make([]stencilEntry, len(es))
		for q, e := range es {
			e.v = float64(float32(e.v))
			r.classes[c][q] = e
		}
	}
	for q, v := range s.coef {
		r.coef[q] = float64(float32(v))
	}
	return &r
}

// CSR materializes the operator as a float64 CSR matrix, allocated once at
// its exact size: each row a column-shifted copy of its class row.
func (s *Stencil) CSR() *sparse.CSR {
	rows := s.Rows()
	m := &sparse.CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1),
		ColIdx: make([]int, s.nnz), Vals: make([]float64, s.nnz)}
	q := 0
	for r := s.runs(0, rows); r.next(); {
		for row := r.lo; row < r.hi; row++ {
			for _, e := range r.es {
				m.ColIdx[q], m.Vals[q] = row+int(e.off), e.v
				q++
			}
			m.RowPtr[row+1] = q
		}
	}
	return m
}

// ApplyRange computes y[lo:hi] = (A x)[lo:hi].
func (s *Stencil) ApplyRange(y, x []float64, lo, hi int) { s.applyRows(y, nil, x, lo, hi) }

// ScaledResidualRange computes w[lo:hi] = (r − scale∘(A r))[lo:hi].
func (s *Stencil) ScaledResidualRange(w, scale, r []float64, lo, hi int) {
	s.applyRows(w, scale, r, lo, hi)
}

// applyRows forms t = (A x)[row] for rows [lo, hi) and stores y[row] = t,
// or y[row] = x[row] − scale[row]·t when scale is set.
func (s *Stencil) applyRows(y, scale, x []float64, lo, hi int) {
	n, nn, c := s.n, s.n*s.n, s.coef
	c0, c1, c2, c3, c4, c5, c6 := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
	store := func(row int, t float64) {
		if scale == nil {
			y[row] = t
		} else {
			y[row] = x[row] - scale[row]*t
		}
	}
	for r := s.runs(lo, hi); r.next(); {
		switch {
		case !r.fast:
			for row := r.lo; row < r.hi; row++ {
				t := 0.0
				for _, e := range r.es {
					t += e.v * x[row+int(e.off)]
				}
				store(row, t)
			}
		case s.fast == 7:
			for row := r.lo; row < r.hi; row++ {
				t := 0.0
				t += c0 * x[row-nn]
				t += c1 * x[row-n]
				t += c2 * x[row-1]
				t += c3 * x[row]
				t += c4 * x[row+1]
				t += c5 * x[row+n]
				t += c6 * x[row+nn]
				store(row, t)
			}
		default:
			for row := r.lo; row < r.hi; row++ {
				t := 0.0
				for p, cq := row-nn-n-1, c[:]; len(cq) >= 9; p, cq = p+nn, cq[9:] {
					v := x[p : p+2*n+3]
					t += cq[0] * v[0]
					t += cq[1] * v[1]
					t += cq[2] * v[2]
					t += cq[3] * v[n]
					t += cq[4] * v[n+1]
					t += cq[5] * v[n+2]
					t += cq[6] * v[2*n]
					t += cq[7] * v[2*n+1]
					t += cq[8] * v[2*n+2]
				}
				store(row, t)
			}
		}
	}
}

// ResidualRange computes r[lo:hi] = (b − A x)[lo:hi].
func (s *Stencil) ResidualRange(r, b, x []float64, lo, hi int) {
	n, nn, c := s.n, s.n*s.n, s.coef
	c0, c1, c2, c3, c4, c5, c6 := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
	for ru := s.runs(lo, hi); ru.next(); {
		switch {
		case !ru.fast:
			for row := ru.lo; row < ru.hi; row++ {
				t := b[row]
				for _, e := range ru.es {
					t -= e.v * x[row+int(e.off)]
				}
				r[row] = t
			}
		case s.fast == 7:
			for row := ru.lo; row < ru.hi; row++ {
				t := b[row]
				t -= c0 * x[row-nn]
				t -= c1 * x[row-n]
				t -= c2 * x[row-1]
				t -= c3 * x[row]
				t -= c4 * x[row+1]
				t -= c5 * x[row+n]
				t -= c6 * x[row+nn]
				r[row] = t
			}
		default:
			for row := ru.lo; row < ru.hi; row++ {
				t := b[row]
				for p, cq := row-nn-n-1, c[:]; len(cq) >= 9; p, cq = p+nn, cq[9:] {
					v := x[p : p+2*n+3]
					t -= cq[0] * v[0]
					t -= cq[1] * v[1]
					t -= cq[2] * v[2]
					t -= cq[3] * v[n]
					t -= cq[4] * v[n+1]
					t -= cq[5] * v[n+2]
					t -= cq[6] * v[2*n]
					t -= cq[7] * v[2*n+1]
					t -= cq[8] * v[2*n+2]
				}
				r[row] = t
			}
		}
	}
}

// JacobiResidualRange is the fused zero-guess diagonal sweep + residual:
// e[lo:hi] = (invDiag∘r)[lo:hi] and t[lo:hi] = (r − A (invDiag∘r))[lo:hi].
func (s *Stencil) JacobiResidualRange(e, t, invDiag, r []float64, lo, hi int) {
	s.smoothedRows(e, t, invDiag, r, lo, hi)
}

// SmoothedResidualRange computes w[lo:hi] = (r − A (scale∘r))[lo:hi].
func (s *Stencil) SmoothedResidualRange(w, scale, r []float64, lo, hi int) {
	s.smoothedRows(nil, w, scale, r, lo, hi)
}

// smoothedRows stores w[row] = r[row] − Σ a·(scale[c]·r[c]) for rows
// [lo, hi), and e[row] = scale[row]·r[row] first when e is set.
func (s *Stencil) smoothedRows(e, w, scale, r []float64, lo, hi int) {
	n, nn, c := s.n, s.n*s.n, s.coef
	c0, c1, c2, c3, c4, c5, c6 := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
	head := func(row int) float64 {
		if e != nil {
			e[row] = scale[row] * r[row]
		}
		return r[row]
	}
	for ru := s.runs(lo, hi); ru.next(); {
		switch {
		case !ru.fast:
			for row := ru.lo; row < ru.hi; row++ {
				t := head(row)
				for _, en := range ru.es {
					q := row + int(en.off)
					t -= en.v * (scale[q] * r[q])
				}
				w[row] = t
			}
		case s.fast == 7:
			for row := ru.lo; row < ru.hi; row++ {
				t := head(row)
				t -= c0 * (scale[row-nn] * r[row-nn])
				t -= c1 * (scale[row-n] * r[row-n])
				t -= c2 * (scale[row-1] * r[row-1])
				t -= c3 * (scale[row] * r[row])
				t -= c4 * (scale[row+1] * r[row+1])
				t -= c5 * (scale[row+n] * r[row+n])
				t -= c6 * (scale[row+nn] * r[row+nn])
				w[row] = t
			}
		default:
			for row := ru.lo; row < ru.hi; row++ {
				t := head(row)
				for p, cq := row-nn-n-1, c[:]; len(cq) >= 9; p, cq = p+nn, cq[9:] {
					d, v := scale[p:p+2*n+3], r[p:p+2*n+3]
					t -= cq[0] * (d[0] * v[0])
					t -= cq[1] * (d[1] * v[1])
					t -= cq[2] * (d[2] * v[2])
					t -= cq[3] * (d[n] * v[n])
					t -= cq[4] * (d[n+1] * v[n+1])
					t -= cq[5] * (d[n+2] * v[n+2])
					t -= cq[6] * (d[2*n] * v[2*n])
					t -= cq[7] * (d[2*n+1] * v[2*n+1])
					t -= cq[8] * (d[2*n+2] * v[2*n+2])
				}
				w[row] = t
			}
		}
	}
}

// ResidualAtomicRange is the stencil form of the asynchronous runtime's
// global-residual refresh against a shared atomic iterate.
func (s *Stencil) ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int) {
	for r := s.runs(lo, hi); r.next(); {
		for row := r.lo; row < r.hi; row++ {
			t := b[row]
			for _, e := range r.es {
				t -= e.v * x.Load(row+int(e.off))
			}
			dst.Store(row, t)
		}
	}
}

func (s *Stencil) Apply(y, x []float64) {
	sparse.RunRows(s.nnz, s.Rows(), sparse.KApply, s, y, x)
}

func (s *Stencil) Residual(r, b, x []float64) {
	sparse.RunRows(s.nnz, s.Rows(), sparse.KResidual, s, r, b, x)
}

func (s *Stencil) FusedJacobiResidual(e, t, invDiag, r []float64) {
	sparse.RunRows(s.nnz, s.Rows(), sparse.KJacobiResidual, s, e, t, invDiag, r)
}

func (s *Stencil) ScaledResidual(w, scale, r []float64) {
	sparse.RunRows(s.nnz, s.Rows(), sparse.KScaledResidual, s, w, scale, r)
}

func (s *Stencil) SmoothedResidual(w, scale, r []float64) {
	sparse.RunRows(s.nnz, s.Rows(), sparse.KSmoothedResidual, s, w, scale, r)
}

// Diag returns the main diagonal: each class row's entry at offset 0.
func (s *Stencil) Diag() []float64 {
	return s.perRow(func(es []stencilEntry) float64 {
		for _, e := range es {
			if e.d == [3]int8{} {
				return e.v
			}
		}
		return 0
	})
}

// RowL1Norms returns Σ_j |a_ij| per row, summed over the class row in
// column order as sparse's RowL1Norms sums a stored row.
func (s *Stencil) RowL1Norms() []float64 {
	return s.perRow(func(es []stencilEntry) float64 {
		t := 0.0
		for _, e := range es {
			t += math.Abs(e.v)
		}
		return t
	})
}

// perRow returns f of each row's class row, evaluated once per run.
func (s *Stencil) perRow(f func([]stencilEntry) float64) []float64 {
	out := make([]float64, s.Rows())
	for r := s.runs(0, len(out)); r.next(); {
		v := f(r.es)
		for row := r.lo; row < r.hi; row++ {
			out[row] = v
		}
	}
	return out
}
