// Package op defines the operator abstraction the cycle engine runs on:
// a linear operator A (matrix-vector products, residuals, diagonal
// extraction) and an interpolation operator P
// (prolongation, restriction), decoupled from any particular storage.
//
// Implementations:
//
//   - CSR[V, I] adapts a stored sparse.Matrix[V, I] and CSRInterp[V, I] a
//     stored (P, Pᵀ) pair; the row kernels are package sparse's, written
//     once for every value and index type. FromCSR / InterpFromCSR wrap a
//     float64/int matrix zero-copy (the default hierarchy, bitwise-pinned
//     by the golden tests); NewCSR32 / NewCSR32Interp re-store it in
//     float32 values with int32 indices (half the bytes per nonzero,
//     float64 accumulation) — the mixed-precision storage for coarse-level
//     and interpolant matrices (AMGCL's design: hierarchy storage drops
//     ~50% with no convergence cost at multigrid tolerances).
//   - Stencil is the one matrix-free structured operator: a class table
//     of 27 rows (offset, value) on an n³ grid. NewStencil7/NewStencil27
//     build the 7-point/27-point Laplacians of package grid, so the fine
//     level of a structured solve never materializes a CSR matrix, and
//     Stencil.Coarsen builds each geometric Galerkin level as a Stencil
//     too. Its kernels are bitwise-identical to the CSR kernels on the
//     materialized matrix and shard over the par worker pool.
//   - GeomInterp is the matrix-free interpolant between a fine n³ grid
//     and its 2h coarsening, a class table too: Coarsen returns the
//     trilinear P, and Smooth builds Multadd's smoothed interpolant
//     P̄ = P − diag(s)·A·P over a stencil as a table of the same classes
//     (at most 216 prolongation and 216 restriction rows), whose weights
//     equal the sparse product's bitwise. No level of a stencil hierarchy
//     stores, multiplies or composes an interpolation matrix.
//
// All kernels follow the package sparse contract: every implementation
// provides serial Range methods, full-vector methods shard them through
// sparse.RunRows above the work threshold, and the sharded form is
// bitwise-identical to the serial one at any worker count. There is one
// kernel per operation: the cycles compose Apply, Residual and ApplyT
// rather than calling fused multi-operation kernels.
package op

import "asyncmg/internal/vec"

// Precision selects the storage precision policy of a hierarchy.
type Precision int

const (
	// Float64 stores every hierarchy matrix in float64 CSR (the default;
	// bitwise-pinned by the golden tests).
	Float64 Precision = iota
	// CoarseFloat32 stores coarse-level operators (k >= 1) and all
	// interpolants in float32 with float64 accumulation; the fine operator
	// and the coarse LU factorization stay float64.
	CoarseFloat32
)

func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case CoarseFloat32:
		return "f32-coarse"
	}
	return "unknown"
}

// Operator is a square linear operator A as the cycle engine consumes it:
// products, residuals and the matrix-derived vectors smoother construction
// needs. Full-vector methods shard over the par pool when the operator
// carries enough work; Range methods compute the half-open row range
// [lo, hi) serially on the caller (the building block of goroutine teams).
type Operator interface {
	// Rows and Cols are the operator dimensions.
	Rows() int
	Cols() int
	// NNZEquivalent is the number of stored (or, for matrix-free
	// operators, implied) nonzeros: the work unit of one apply, used for
	// parallel-dispatch thresholds, flop estimates and operator
	// complexity.
	NNZEquivalent() int
	// Bytes is the resident storage footprint of the operator
	// (matrix-free operators report O(1)).
	Bytes() int
	// Apply computes y = A x.
	Apply(y, x []float64)
	// ApplyRange computes y[lo:hi] = (A x)[lo:hi].
	ApplyRange(y, x []float64, lo, hi int)
	// Residual computes r = b − A x.
	Residual(r, b, x []float64)
	// ResidualRange computes r[lo:hi] = (b − A x)[lo:hi].
	ResidualRange(r, b, x []float64, lo, hi int)
	// Diag returns the main diagonal as a fresh slice.
	Diag() []float64
	// RowL1Norms returns Σ_j |a_ij| per row as a fresh slice.
	RowL1Norms() []float64
}

// Interp is the prolongation/restriction view of one level pair:
// fine = P·coarse and coarse = Pᵀ·fine. Apply* methods range over fine
// rows, ApplyT* methods over coarse rows.
type Interp interface {
	NNZEquivalent() int
	Bytes() int
	// Apply computes fine = P coarse.
	Apply(fine, coarse []float64)
	// ApplyAdd computes fine += P coarse.
	ApplyAdd(fine, coarse []float64)
	// ApplyRange computes fine[lo:hi] = (P coarse)[lo:hi].
	ApplyRange(fine, coarse []float64, lo, hi int)
	// ApplyAddRange computes fine[lo:hi] += (P coarse)[lo:hi].
	ApplyAddRange(fine, coarse []float64, lo, hi int)
	// ApplyT computes coarse = Pᵀ fine.
	ApplyT(coarse, fine []float64)
	// ApplyTRange computes coarse[lo:hi] = (Pᵀ fine)[lo:hi].
	ApplyTRange(coarse, fine []float64, lo, hi int)
}

// ---- optional capabilities ----

// AtomicResidualer computes residual rows against a shared atomic iterate
// (the asynchronous shared-memory runtime's global-residual refresh):
// dst[i] = b[i] − Σ_j a_ij·x.Load(j) for i in [lo, hi), stored with
// dst.Store(i, ·).
type AtomicResidualer interface {
	ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int)
}

// FusedJacobiResidualRestrict is the multiplicative down-leg level step
// for a diagonal smoother: e = invDiag∘r, then rc = Pᵀ (r − A e), as the
// plain sequence of one scaling, Residual and ApplyT. Its only caller is
// the benchmark's sparse.fused_jrr_over_unfused probe, which retires with
// it.
func FusedJacobiResidualRestrict(a Operator, itp Interp, e, rc, invDiag, r, tmp []float64) {
	for i := range e {
		e[i] = invDiag[i] * r[i]
	}
	a.Residual(tmp, r, e)
	itp.ApplyT(rc, tmp)
}
