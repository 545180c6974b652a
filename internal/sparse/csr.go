// Package sparse implements the compressed sparse row (CSR) matrix kernels
// that every other subsystem in this repository is built on: sparse
// matrix-vector products, transposes, sparse general matrix-matrix products,
// the Galerkin triple product used by the AMG setup, triangular solves for
// Gauss-Seidel-type smoothers, and a COO assembly builder for the FEM and
// stencil problem generators.
//
// All matrices use 0-based indices and row-major CSR storage, generic over
// the stored value and index types (Matrix); every kernel accumulates in
// float64 against float64 vectors. The setup phase (assembly, GEMM,
// sparsification) works on CSR, the float64/int instantiation. Within each
// row, column indices are kept sorted ascending; every constructor and
// transformation in this package preserves that invariant, and Validate
// checks it.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"asyncmg/internal/par"
)

// Value is a stored matrix-entry type; Index a stored row-pointer and
// column-index type.
type (
	Value interface{ float32 | float64 }
	Index interface{ int32 | int }
)

// Matrix is a sparse matrix in compressed sparse row format, generic over
// its stored value and index types.
//
// Row i occupies the half-open range RowPtr[i]:RowPtr[i+1] of ColIdx and
// Vals. ColIdx is sorted ascending within each row and contains no
// duplicates.
type Matrix[V Value, I Index] struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// RowPtr has length Rows+1; RowPtr[0] == 0 and RowPtr[Rows] == len(Vals).
	RowPtr []I
	// ColIdx holds the column index of each stored entry.
	ColIdx []I
	// Vals holds the value of each stored entry.
	Vals []V
}

// CSR is the float64/int matrix the setup phase builds and transforms.
type CSR = Matrix[float64, int]

// Convert re-stores m with value type V and index type I (float32 values
// round once, here). It panics if a dimension or the entry count does not
// fit I.
func Convert[V Value, I Index, V0 Value, I0 Index](m *Matrix[V0, I0]) *Matrix[V, I] {
	for _, n := range [...]int{m.Rows, m.Cols, len(m.Vals)} {
		if int(I(n)) != n {
			panic(fmt.Sprintf("sparse: Convert: %d does not fit the index type", n))
		}
	}
	c := &Matrix[V, I]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]I, len(m.RowPtr)),
		ColIdx: make([]I, len(m.ColIdx)),
		Vals:   make([]V, len(m.Vals)),
	}
	for i, p := range m.RowPtr {
		c.RowPtr[i] = I(p)
	}
	for i, j := range m.ColIdx {
		c.ColIdx[i] = I(j)
	}
	for i, v := range m.Vals {
		c.Vals[i] = V(v)
	}
	return c
}

// NNZ returns the number of stored entries.
func (a *Matrix[V, I]) NNZ() int { return len(a.Vals) }

// Bytes reports the resident storage of the three CSR arrays.
func (a *Matrix[V, I]) Bytes() int {
	var v V
	var i I
	return int(unsafe.Sizeof(i))*(len(a.RowPtr)+len(a.ColIdx)) + int(unsafe.Sizeof(v))*len(a.Vals)
}

// Validate checks the structural invariants of the CSR storage: monotone row
// pointers, in-range sorted column indices with no duplicates, and finite
// values. It returns a descriptive error for the first violation found.
func (a *Matrix[V, I]) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if int(a.RowPtr[a.Rows]) != len(a.Vals) || len(a.ColIdx) != len(a.Vals) {
		return fmt.Errorf("sparse: RowPtr[last]=%d, len(ColIdx)=%d, len(Vals)=%d disagree",
			a.RowPtr[a.Rows], len(a.ColIdx), len(a.Vals))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j, v := int(a.ColIdx[p]), float64(a.Vals[p])
			if j < 0 || j >= a.Cols {
				return fmt.Errorf("sparse: row %d has column %d out of range [0,%d)", i, j, a.Cols)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", i, j)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sparse: row %d col %d has non-finite value %v", i, j, v)
			}
			prev = j
		}
	}
	return nil
}

// At returns the value stored at (i, j), or 0 if no entry exists. It is
// O(log nnz(row i)) and intended for tests and small problems, not kernels.
func (a *Matrix[V, I]) At(i, j int) float64 {
	cols, vals := a.row(i)
	k := sort.Search(len(cols), func(k int) bool { return int(cols[k]) >= j })
	if k < len(cols) && int(cols[k]) == j {
		return float64(vals[k])
	}
	return 0
}

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

// Transpose returns Aᵀ as a new CSR matrix. The result has sorted rows by
// construction (counting sort over rows of A). Large transposes shard the
// count and scatter passes over the kernel pool (see transposePar); the
// output is bitwise-identical either way.
func (a *Matrix[V, I]) Transpose() *Matrix[V, I] {
	t := &Matrix[V, I]{Rows: a.Cols, Cols: a.Rows,
		RowPtr: make([]I, a.Cols+1),
		ColIdx: make([]I, a.NNZ()),
		Vals:   make([]V, a.NNZ()),
	}
	if par.Par(a.NNZ()) {
		a.transposePar(t)
		return t
	}
	// Count entries per column of A.
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < a.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]I(nil), t.RowPtr[:a.Cols]...)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			q := next[j]
			next[j]++
			t.ColIdx[q] = I(i)
			t.Vals[q] = a.Vals[p]
		}
	}
	return t
}

// DropSmall returns a copy of a with entries |v| <= tol removed (diagonal
// entries are always kept). Used to post-filter near-zero fill-in from
// sparse products such as the smoothed interpolants. The output is sized
// exactly by a counting pass, so no append regrowth occurs.
func (a *Matrix[V, I]) DropSmall(tol float64) *Matrix[V, I] {
	keep := 0
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if math.Abs(float64(a.Vals[p])) > tol || int(a.ColIdx[p]) == i {
				keep++
			}
		}
	}
	c := &Matrix[V, I]{Rows: a.Rows, Cols: a.Cols,
		RowPtr: make([]I, a.Rows+1),
		ColIdx: make([]I, 0, keep),
		Vals:   make([]V, 0, keep),
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if math.Abs(float64(a.Vals[p])) > tol || int(a.ColIdx[p]) == i {
				c.ColIdx = append(c.ColIdx, a.ColIdx[p])
				c.Vals = append(c.Vals, a.Vals[p])
			}
		}
		c.RowPtr[i+1] = I(len(c.Vals))
	}
	return c
}

// ScaleRows multiplies row i of a by s[i] in place.
func (a *Matrix[V, I]) ScaleRows(s []float64) {
	if len(s) != a.Rows {
		panic("sparse: ScaleRows length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Vals[p] = V(float64(a.Vals[p]) * s[i])
		}
	}
}

// Add returns A + B for matrices of identical shape.
func Add(a, b *CSR) *CSR {
	return addScaled(a, b, 1)
}

// Sub returns A - B for matrices of identical shape.
func Sub(a, b *CSR) *CSR {
	return addScaled(a, b, -1)
}

func addScaled(a, b *CSR, beta float64) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add/Sub shape mismatch")
	}
	// nnz(A)+nnz(B) bounds the union of the two sparsity patterns, so the
	// output never regrows (overlapping columns only make it smaller).
	bound := a.NNZ() + b.NNZ()
	c := &CSR{Rows: a.Rows, Cols: a.Cols,
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

// LowerTriSolveRange performs a forward substitution with the lower
// triangular part (including diagonal) of A restricted to the index block
// [lo, hi): it solves L x = b treating only columns within [lo, hi) and on
// or below the diagonal, which is exactly one block of the hybrid
// Jacobi-Gauss-Seidel smoother. Entries of x outside [lo, hi) are not
// touched. Rows with a zero diagonal leave x unchanged for that row.
func (a *Matrix[V, I]) LowerTriSolveRange(x, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := int(a.ColIdx[p])
			if j < lo {
				continue
			}
			if j > i {
				break // sorted columns: nothing at or below the diagonal remains
			}
			if j == i {
				diag = float64(a.Vals[p])
			} else {
				s -= float64(a.Vals[p]) * x[j]
			}
		}
		if diag != 0 {
			x[i] = s / diag
		}
	}
}

// GaussSeidelSweepRange performs one forward Gauss-Seidel sweep on the row
// block [lo, hi) of A x = b, reading the most recent values of x everywhere
// (including outside the block). It is the serial kernel underneath both
// hybrid JGS (with block-local reads) and async GS (with shared reads).
func (a *Matrix[V, I]) GaussSeidelSweepRange(x, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := int(a.ColIdx[p])
			if j == i {
				diag = float64(a.Vals[p])
			} else {
				s -= float64(a.Vals[p]) * x[j]
			}
		}
		if diag != 0 {
			x[i] = s / diag
		}
	}
}

// IsSymmetric reports whether A equals its transpose up to tol, comparing
// entry by entry. Intended for tests and setup-time validation.
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

// ToDense expands the matrix into a dense row-major slice of slices.
// Intended for tests and the coarse-grid direct solver.
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
