package op

import (
	"math"

	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// CSR adapts a stored matrix to the Operator interface, generic over the
// stored value and index types: the row kernels are sparse.Matrix's, so
// every store is an instantiation of one implementation and an engine
// running on any of them computes exactly what the sparse kernels compute.
//
// A hierarchy stores uint32 indices: float64/uint32 at 12 bytes per
// nonzero against the caller's float64/int at 16, and float32/uint32 at 8
// on the coarse levels and interpolants of a CoarseFloat32 hierarchy
// (AMGCL's precision policy): every stored value converted to float64 at
// load and accumulated in float64, so only the matrix entries themselves
// are rounded — once, at conversion.
//
// The row walks of the block smoothers and the asynchronous runtime
// (LowerSolveRange, OffBlockL1Range and the two atomic kernels) are
// written here, on the same stored rows, rather than in package sparse,
// whose float64 kernels' cache-line placement the Mult solve time is
// sensitive to (EXPERIMENTS.md, "Code alignment").
type CSR[V sparse.Value, I sparse.Index] struct {
	M *sparse.Matrix[V, I]
}

// FromCSR wraps m (zero-copy) as an Operator.
func FromCSR[I sparse.Index](m *sparse.Matrix[float64, I]) *CSR[float64, I] {
	return &CSR[float64, I]{M: m}
}

// NewCSR32 re-stores m in float32 values with uint32 indices. It panics if
// a dimension or the nonzero count overflows uint32.
func NewCSR32[I sparse.Index](m *sparse.Matrix[float64, I]) *CSR[float32, uint32] {
	return &CSR[float32, uint32]{M: sparse.Convert[float32, uint32](m)}
}

func (a *CSR[V, I]) Rows() int          { return a.M.Rows }
func (a *CSR[V, I]) Cols() int          { return a.M.Cols }
func (a *CSR[V, I]) NNZEquivalent() int { return a.M.NNZ() }
func (a *CSR[V, I]) Bytes() int         { return a.M.Bytes() }

func (a *CSR[V, I]) Apply(y, x []float64)                  { a.M.MatVecPar(y, x) }
func (a *CSR[V, I]) ApplyRange(y, x []float64, lo, hi int) { a.M.ApplyRange(y, x, lo, hi) }
func (a *CSR[V, I]) Residual(r, b, x []float64)            { a.M.ResidualPar(r, b, x) }
func (a *CSR[V, I]) ResidualRange(r, b, x []float64, lo, hi int) {
	a.M.ResidualRange(r, b, x, lo, hi)
}
func (a *CSR[V, I]) Diag() []float64       { return a.M.Diag() }
func (a *CSR[V, I]) RowL1Norms() []float64 { return a.M.RowL1Norms() }

// ResidualAtomicRange computes dst[i] = b[i] − Σ_j a_ij·x.Load(j) for
// rows [lo, hi) against a shared atomic iterate. The loop body is the one
// the asynchronous runtime's global-residual refresh has always run.
func (a *CSR[V, I]) ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int) {
	m := a.M
	for i := lo; i < hi; i++ {
		s := b[i]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s -= float64(m.Vals[p]) * x.Load(int(m.ColIdx[p]))
		}
		dst.Store(i, s)
	}
}

// GaussSeidelAtomicRange is the in-place Gauss-Seidel sweep of rows
// [lo, hi) against a shared atomic iterate; a zero pivot skips its row.
func (a *CSR[V, I]) GaussSeidelAtomicRange(x *vec.Atomic, b []float64, lo, hi int) {
	m := a.M
	for i := lo; i < hi; i++ {
		sum, diag := b[i], 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.ColIdx[p])
			if j == i {
				diag += float64(m.Vals[p])
				continue
			}
			sum -= float64(m.Vals[p]) * x.Load(j)
		}
		if diag != 0 {
			x.Store(i, sum/diag)
		}
	}
}

// AsCSR returns the float64/uint32 matrix behind a hierarchy level, or nil
// when a is matrix-free or stored in another precision or index width.
// Only sparsification, which needs the float64 rows themselves, uses it.
func AsCSR(a Operator) *sparse.Matrix[float64, uint32] {
	if c, ok := a.(*CSR[float64, uint32]); ok {
		return c.M
	}
	return nil
}

// CSRInterp adapts a stored interpolant pair (P and its cached transpose
// Pᵀ) to the Interp interface, generic like CSR.
type CSRInterp[V sparse.Value, I sparse.Index] struct {
	P, PT *sparse.Matrix[V, I]
}

// InterpFromCSR wraps p (and its transpose pt, which may be nil — it is
// computed once here) as an Interp.
func InterpFromCSR[I sparse.Index](p, pt *sparse.Matrix[float64, I]) *CSRInterp[float64, I] {
	if pt == nil {
		pt = p.Transpose()
	}
	return &CSRInterp[float64, I]{P: p, PT: pt}
}

// NewCSR32Interp re-stores a float64 interpolant pair in float32/uint32.
// pt may be nil.
func NewCSR32Interp[I sparse.Index](p, pt *sparse.Matrix[float64, I]) *CSRInterp[float32, uint32] {
	if pt == nil {
		pt = p.Transpose()
	}
	return &CSRInterp[float32, uint32]{P: sparse.Convert[float32, uint32](p), PT: sparse.Convert[float32, uint32](pt)}
}

func (t *CSRInterp[V, I]) NNZEquivalent() int { return t.P.NNZ() }
func (t *CSRInterp[V, I]) Bytes() int         { return t.P.Bytes() + t.PT.Bytes() }

func (t *CSRInterp[V, I]) Apply(fine, coarse []float64)    { t.P.MatVecPar(fine, coarse) }
func (t *CSRInterp[V, I]) ApplyAdd(fine, coarse []float64) { t.P.MatVecAddPar(fine, coarse) }
func (t *CSRInterp[V, I]) ApplyRange(fine, coarse []float64, lo, hi int) {
	t.P.ApplyRange(fine, coarse, lo, hi)
}
func (t *CSRInterp[V, I]) ApplyAddRange(fine, coarse []float64, lo, hi int) {
	t.P.ApplyAddRange(fine, coarse, lo, hi)
}
func (t *CSRInterp[V, I]) ApplyT(coarse, fine []float64) { t.PT.MatVecPar(coarse, fine) }
func (t *CSRInterp[V, I]) ApplyTRange(coarse, fine []float64, lo, hi int) {
	t.PT.ApplyRange(coarse, fine, lo, hi)
}

// LowerSolveRange is the hybrid smoothers' block forward substitution,
// (L + D + diag(aug)) x = b on the block of rows [lo, hi): only columns in
// the block and on or below the diagonal take part, aug (ℓ1 hybrid JGS's
// diagonal augmentation) may be nil, and a zero pivot leaves x_i as it is.
func (a *CSR[V, I]) LowerSolveRange(x, b, aug []float64, lo, hi int) {
	m := a.M
	for i := lo; i < hi; i++ {
		sum, diag := b[i], 0.0
		if aug != nil {
			diag = aug[i]
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.ColIdx[p])
			if j < lo {
				continue
			}
			if j > i {
				break // sorted columns: nothing at or below the diagonal remains
			}
			if j == i {
				diag += float64(m.Vals[p])
			} else {
				sum -= float64(m.Vals[p]) * x[j]
			}
		}
		if diag != 0 {
			x[i] = sum / diag
		}
	}
}

// OffBlockL1Range computes dst[i] = Σ_{j ∉ [lo, hi)} |a_ij|, each block
// row's ℓ1 norm outside the block [lo, hi).
func (a *CSR[V, I]) OffBlockL1Range(dst []float64, lo, hi int) {
	m := a.M
	for i := lo; i < hi; i++ {
		off := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if j := int(m.ColIdx[p]); j < lo || j >= hi {
				off += math.Abs(float64(m.Vals[p]))
			}
		}
		dst[i] = off
	}
}
