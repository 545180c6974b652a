// Package op defines the operator abstraction the cycle engine runs on:
// a linear operator A (matrix-vector products, residuals, fused smoothing
// kernels, diagonal extraction) and an interpolation operator P
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
//     Stencil.Coarsen builds the Galerkin level 1 as a Stencil too. Its
//     kernels are bitwise-identical to the CSR kernels on the
//     materialized matrix and shard over the par worker pool.
//   - GeomInterp is the matrix-free trilinear interpolant between a fine
//     n³ grid and its 2h coarsening — prolongation and restriction without
//     storing P or Pᵀ.
//   - SmoothedInterp composes P̄ = (I − diag(s)·A)·P from an Operator and
//     an Interp without materializing P̄ or P̄ᵀ (Multadd's smoothed
//     interpolants become zero-storage).
//
// All kernels follow the package sparse contract: every implementation
// provides serial Range methods, full-vector methods shard them through
// sparse.RunRows above the work threshold, and the sharded form is
// bitwise-identical to the serial one at any worker count.
package op

import (
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

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
	FineRows() int
	CoarseRows() int
	NNZEquivalent() int
	Bytes() int
	// Apply computes fine = P coarse.
	Apply(fine, coarse []float64)
	// ApplyAdd computes fine += P coarse.
	ApplyAdd(fine, coarse []float64)
	// ApplyRange computes fine[lo:hi] = (P coarse)[lo:hi].
	ApplyRange(fine, coarse []float64, lo, hi int)
	// ApplyT computes coarse = Pᵀ fine.
	ApplyT(coarse, fine []float64)
	// ApplyTRange computes coarse[lo:hi] = (Pᵀ fine)[lo:hi].
	ApplyTRange(coarse, fine []float64, lo, hi int)
}

// ---- optional capabilities ----

// JacobiFused is implemented by operators that can run the zero-guess
// diagonal smoothing sweep fused with its post-sweep residual in one pass:
// e = invDiag∘r and t = r − A e.
type JacobiFused interface {
	FusedJacobiResidual(e, t, invDiag, r []float64)
}

// SmoothedApplier is implemented by operators providing the two fused
// one-pass kernels the composed smoothed interpolant P̄ = (I − diag(s)A)P
// needs:
//
//	ScaledResidual:   w = r − s∘(A r)   (the P̄ apply tail)
//	SmoothedResidual: w = r − A (s∘r)   (the P̄ᵀ apply head; A symmetric)
//
// Both recompute the scaled operand on the fly (like the fused Jacobi
// kernel), so they are single passes with no ordering hazard.
type SmoothedApplier interface {
	ScaledResidual(w, scale, r []float64)
	ScaledResidualRange(w, scale, r []float64, lo, hi int)
	SmoothedResidual(w, scale, r []float64)
	SmoothedResidualRange(w, scale, r []float64, lo, hi int)
}

// AtomicResidualer computes residual rows against a shared atomic iterate
// (the asynchronous shared-memory runtime's global-residual refresh):
// dst[i] = b[i] − Σ_j a_ij·x.Load(j) for i in [lo, hi), stored with
// dst.Store(i, ·).
type AtomicResidualer interface {
	ResidualAtomicRange(dst *vec.Atomic, b []float64, x *vec.Atomic, lo, hi int)
}

// BlockOperator is implemented by operators with a fused multi-RHS
// residual (k packed columns, row-major): the block cycle path requires it
// on every level.
type BlockOperator interface {
	ResidualBlock(r, b, x []float64, k int)
}

// BlockApplier is the multi-RHS product capability y = A x (k packed
// columns, row-major). The CSR-backed operators provide it.
type BlockApplier interface {
	ApplyBlock(y, x []float64, k int)
}

// BlockInterp is the multi-RHS capability of an Interp.
type BlockInterp interface {
	ApplyAddBlock(fine, coarse []float64, k int)
	ApplyTBlock(coarse, fine []float64, k int)
}

// ---- fused engine-facing helpers ----

// FusedResidualRestrict computes rc = Pᵀ (b − A x), the down-leg step of
// every multiplicative V-cycle, generically over operator and interpolant.
// For the float64 CSR pair it delegates to the fused sparse kernel
// (bitwise-identical to the pre-refactor engine); for every other pairing
// it runs the operator's sharded residual into tmp followed by the
// interpolant's restriction — the same two-step sequence the sparse kernel
// uses above the parallel threshold, which is bitwise-identical to the
// fused scatter by the kernel contract. tmp must be a fine-length scratch.
func FusedResidualRestrict(a Operator, itp Interp, rc, b, x, tmp []float64) {
	if ac, ic := AsCSR(a), asCSRInterp(itp); ac != nil && ic != nil {
		sparse.FusedResidualRestrict(ac, ic.P, ic.PT, rc, b, x, tmp)
		return
	}
	a.Residual(tmp, b, x)
	itp.ApplyT(rc, tmp)
}

// FusedJacobiResidualRestrict fuses a multiplicative down-leg level step
// for diagonal smoothers: e = invDiag∘r, then rc = Pᵀ (r − A e). Same
// dispatch policy as FusedResidualRestrict.
func FusedJacobiResidualRestrict(a Operator, itp Interp, e, rc, invDiag, r, tmp []float64) {
	if ac, ic := AsCSR(a), asCSRInterp(itp); ac != nil && ic != nil {
		sparse.FusedJacobiResidualRestrict(ac, ic.P, ic.PT, e, rc, invDiag, r, tmp)
		return
	}
	if jf, ok := a.(JacobiFused); ok {
		jf.FusedJacobiResidual(e, tmp, invDiag, r)
	} else {
		n := a.Rows()
		for i := 0; i < n; i++ {
			e[i] = invDiag[i] * r[i]
		}
		a.Residual(tmp, r, e)
	}
	itp.ApplyT(rc, tmp)
}

// ScaledResidual computes w = r − scale∘(A r) through the operator's fused
// capability, falling back to a two-pass apply with the caller's scratch.
func ScaledResidual(a Operator, w, scale, r, scratch []float64) {
	if sa, ok := a.(SmoothedApplier); ok {
		sa.ScaledResidual(w, scale, r)
		return
	}
	a.Apply(scratch, r)
	for i := range w {
		w[i] = r[i] - scale[i]*scratch[i]
	}
}

// SmoothedResidual computes w = r − A (scale∘r) through the operator's
// fused capability, falling back to a two-pass apply.
func SmoothedResidual(a Operator, w, scale, r, scratch []float64) {
	if sa, ok := a.(SmoothedApplier); ok {
		sa.SmoothedResidual(w, scale, r)
		return
	}
	for i := range scratch {
		scratch[i] = scale[i] * r[i]
	}
	a.Apply(w, scratch)
	for i := range w {
		w[i] = r[i] - w[i]
	}
}
