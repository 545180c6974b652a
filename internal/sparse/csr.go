// Package sparse implements the compressed sparse row (CSR) matrix kernels
// that every other subsystem in this repository is built on: sparse
// matrix-vector products, transposes, sparse general matrix-matrix products,
// the Galerkin triple product used by the AMG setup, and a COO assembly
// builder for the FEM and stencil problem generators.
//
// All matrices use 0-based indices and row-major CSR storage, generic over
// the stored value and index types (Matrix); every kernel accumulates in
// float64 against float64 vectors. The setup phase (assembly, GEMM) works
// on CSR, the float64/int instantiation. Within each row, column indices
// are kept sorted ascending; every constructor and transformation in this
// package preserves that invariant, and Validate checks it.
package sparse

import (
	"fmt"
	"math"
	"unsafe"

	"asyncmg/internal/par"
)

// Value is a stored matrix-entry type; Index a stored row-pointer and
// column-index type (uint32 in the multigrid hierarchy).
type (
	Value interface{ float32 | float64 }
	Index interface{ uint32 | int }
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

// Fits returns an error naming the first of counts I cannot hold.
func Fits[I Index](counts ...int) error {
	for _, n := range counts {
		if int(I(n)) != n {
			return fmt.Errorf("sparse: %d does not fit the index type", n)
		}
	}
	return nil
}

// Convert re-stores m with value type V and index type I (float32 values
// round once, here). Where m already stores V, the result shares m's values
// and only the indices are re-stored. It panics if a dimension or the
// entry count does not fit I.
func Convert[V Value, I Index, V0 Value, I0 Index](m *Matrix[V0, I0]) *Matrix[V, I] {
	if err := Fits[I](m.Rows, m.Cols, len(m.Vals)); err != nil {
		panic(err)
	}
	vals, same := any(m.Vals).([]V)
	c := &Matrix[V, I]{Rows: m.Rows, Cols: m.Cols, Vals: vals,
		RowPtr: make([]I, len(m.RowPtr)), ColIdx: make([]I, len(m.ColIdx))}
	for i, p := range m.RowPtr {
		c.RowPtr[i] = I(p)
	}
	for i, j := range m.ColIdx {
		c.ColIdx[i] = I(j)
	}
	if !same {
		c.Vals = make([]V, len(m.Vals))
		for i, v := range m.Vals {
			c.Vals[i] = V(v)
		}
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
