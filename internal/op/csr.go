package op

import (
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// CSR adapts a stored matrix to the Operator interface, generic over the
// stored value and index types: the row kernels are sparse.Matrix's, so
// the float64/int and float32/int32 stores are two instantiations of one
// implementation and an engine running on either computes exactly what
// the sparse kernels compute.
//
// The float32/int32 instantiation is the mixed-precision storage for
// coarse-level operators and interpolants (AMGCL's precision policy):
// 8 bytes per nonzero against 16, every stored value converted to float64
// at load and accumulated in float64, so only the matrix entries themselves
// are rounded — once, at conversion.
type CSR[V sparse.Value, I sparse.Index] struct {
	M *sparse.Matrix[V, I]
}

// FromCSR wraps m (zero-copy) as an Operator.
func FromCSR(m *sparse.CSR) *CSR[float64, int] { return &CSR[float64, int]{M: m} }

// NewCSR32 re-stores m in float32 values with int32 indices. It panics if
// a dimension or the nonzero count overflows int32 (coarse-level matrices
// are orders of magnitude below that).
func NewCSR32(m *sparse.CSR) *CSR[float32, int32] {
	return &CSR[float32, int32]{M: sparse.Convert[float32, int32](m)}
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

func (a *CSR[V, I]) FusedJacobiResidual(e, t, invDiag, r []float64) {
	sparse.RunRows(a.M.NNZ(), a.M.Rows, sparse.KJacobiResidual, a.M, e, t, invDiag, r)
}

func (a *CSR[V, I]) ScaledResidual(w, scale, r []float64) {
	sparse.RunRows(a.M.NNZ(), a.M.Rows, sparse.KScaledResidual, a.M, w, scale, r)
}
func (a *CSR[V, I]) ScaledResidualRange(w, scale, r []float64, lo, hi int) {
	a.M.ScaledResidualRange(w, scale, r, lo, hi)
}
func (a *CSR[V, I]) SmoothedResidual(w, scale, r []float64) {
	sparse.RunRows(a.M.NNZ(), a.M.Rows, sparse.KSmoothedResidual, a.M, w, scale, r)
}
func (a *CSR[V, I]) SmoothedResidualRange(w, scale, r []float64, lo, hi int) {
	a.M.SmoothedResidualRange(w, scale, r, lo, hi)
}

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

func (a *CSR[V, I]) ResidualBlock(r, b, x []float64, k int) {
	a.M.RunBlock(sparse.KResidualBlock, r, b, x, k)
}
func (a *CSR[V, I]) ApplyBlock(y, x []float64, k int) {
	a.M.RunBlock(sparse.KApplyBlock, y, nil, x, k)
}

// AsCSR returns the float64 CSR behind a, or nil when a is matrix-free or
// stored in another precision. Consumers that genuinely need row storage
// (block-triangular smoothers, the dense coarse factorization, sparse
// products) use it.
func AsCSR(a Operator) *sparse.CSR {
	if c, ok := a.(*CSR[float64, int]); ok {
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
func InterpFromCSR(p, pt *sparse.CSR) *CSRInterp[float64, int] {
	if pt == nil {
		pt = p.Transpose()
	}
	return &CSRInterp[float64, int]{P: p, PT: pt}
}

// NewCSR32Interp re-stores a float64 interpolant pair in float32/int32.
// pt may be nil.
func NewCSR32Interp(p, pt *sparse.CSR) *CSRInterp[float32, int32] {
	if pt == nil {
		pt = p.Transpose()
	}
	return &CSRInterp[float32, int32]{P: sparse.Convert[float32, int32](p), PT: sparse.Convert[float32, int32](pt)}
}

func (t *CSRInterp[V, I]) FineRows() int      { return t.P.Rows }
func (t *CSRInterp[V, I]) CoarseRows() int    { return t.P.Cols }
func (t *CSRInterp[V, I]) NNZEquivalent() int { return t.P.NNZ() }
func (t *CSRInterp[V, I]) Bytes() int         { return t.P.Bytes() + t.PT.Bytes() }

func (t *CSRInterp[V, I]) Apply(fine, coarse []float64)    { t.P.MatVecPar(fine, coarse) }
func (t *CSRInterp[V, I]) ApplyAdd(fine, coarse []float64) { t.P.MatVecAddPar(fine, coarse) }
func (t *CSRInterp[V, I]) ApplyRange(fine, coarse []float64, lo, hi int) {
	t.P.ApplyRange(fine, coarse, lo, hi)
}
func (t *CSRInterp[V, I]) ApplyT(coarse, fine []float64) { t.PT.MatVecPar(coarse, fine) }
func (t *CSRInterp[V, I]) ApplyTRange(coarse, fine []float64, lo, hi int) {
	t.PT.ApplyRange(coarse, fine, lo, hi)
}

func (t *CSRInterp[V, I]) ApplyAddBlock(fine, coarse []float64, k int) {
	t.P.RunBlock(sparse.KApplyAddBlock, fine, nil, coarse, k)
}
func (t *CSRInterp[V, I]) ApplyTBlock(coarse, fine []float64, k int) {
	t.PT.RunBlock(sparse.KApplyBlock, coarse, nil, fine, k)
}

func asCSRInterp(itp Interp) *CSRInterp[float64, int] {
	t, _ := itp.(*CSRInterp[float64, int])
	return t
}
