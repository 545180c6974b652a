// CSR row kernels, their sharding, and the fused down-leg kernels.
//
// Every row kernel is written once, as a serial Range method on
// Matrix[V, I] computing the half-open row range [lo, hi): stored values
// convert to float64 at load and every row accumulates in float64 over its
// entries in ascending column order, so only the stored entries themselves
// are rounded (once, at conversion) and the float64/int and float32/int32
// instantiations differ in nothing but bytes streamed.
//
// Full-vector kernels shard their row loop over the shared par.Default()
// worker pool through RunRows when the operand carries enough work
// (measured in nonzeros, par.Par) and run serially on the caller
// otherwise. Because row loops are independent, a sharded kernel is
// bitwise-identical to its serial form at any worker count. The one shard
// descriptor is recycled through a sync.Pool, so the steady state
// allocates nothing.
//
// The fused kernels collapse the multigrid level loop's adjacent passes
// (smoother apply → residual → restriction) into single sweeps over the
// matrix, the optimization Munch et al. (2022) identify as dominating
// matrix-free multigrid throughput. Each fused kernel is constructed to be
// bitwise-identical to the unfused sequence it replaces: the scatter form
// of the restriction accumulates every coarse entry in the same ascending
// fine-row order as the gather (Pᵀ rows are sorted by construction), and
// the fused Jacobi sweep recomputes invDiag[j]*r[j] on the fly, which
// rounds identically to reading the stored e[j].
package sparse

import (
	"fmt"
	"math"
	"sync"

	"asyncmg/internal/par"
)

// ---- the one shard dispatcher ----

// Kernel names a row kernel by the Range method RunRows shards.
type Kernel uint8

const (
	KApply            Kernel = iota // ApplyRange(y, x, lo, hi): y = A x
	KApplyAdd                       // ApplyAddRange(y, x, lo, hi): y += A x
	KApplyT                         // ApplyTRange(y, x, lo, hi): y = Aᵀ x, rows of Aᵀ
	KResidual                       // ResidualRange(r, b, x, lo, hi): r = b − A x
	KJacobiResidual                 // JacobiResidualRange(e, t, invDiag, r, lo, hi)
	KScaledResidual                 // ScaledResidualRange(w, scale, r, lo, hi)
	KSmoothedResidual               // SmoothedResidualRange(w, scale, r, lo, hi)
	KApplyBlock                     // ApplyBlockRange(y, x, k, lo, hi)
	KApplyAddBlock                  // ApplyAddBlockRange(y, x, k, lo, hi)
	KResidualBlock                  // ResidualBlockRange(r, b, x, k, lo, hi)
)

// shard is the one pooled descriptor behind every sharded full-vector
// kernel: which Range method of on to run, with the vector arguments v in
// that method's own order (k is the block kernels' column count).
type shard struct {
	kernel Kernel
	on     any
	v      [4][]float64
	k      int
}

// Do runs the described kernel on rows [lo, hi). The interface assertion
// costs once per shard, never per row.
func (s *shard) Do(_, lo, hi int) {
	v := &s.v
	switch s.kernel {
	case KApply:
		s.on.(interface {
			ApplyRange(y, x []float64, lo, hi int)
		}).ApplyRange(v[0], v[1], lo, hi)
	case KApplyAdd:
		s.on.(interface {
			ApplyAddRange(y, x []float64, lo, hi int)
		}).ApplyAddRange(v[0], v[1], lo, hi)
	case KApplyT:
		s.on.(interface {
			ApplyTRange(y, x []float64, lo, hi int)
		}).ApplyTRange(v[0], v[1], lo, hi)
	case KResidual:
		s.on.(interface {
			ResidualRange(r, b, x []float64, lo, hi int)
		}).ResidualRange(v[0], v[1], v[2], lo, hi)
	case KJacobiResidual:
		s.on.(interface {
			JacobiResidualRange(e, t, invDiag, r []float64, lo, hi int)
		}).JacobiResidualRange(v[0], v[1], v[2], v[3], lo, hi)
	case KScaledResidual:
		s.on.(interface {
			ScaledResidualRange(w, scale, r []float64, lo, hi int)
		}).ScaledResidualRange(v[0], v[1], v[2], lo, hi)
	case KSmoothedResidual:
		s.on.(interface {
			SmoothedResidualRange(w, scale, r []float64, lo, hi int)
		}).SmoothedResidualRange(v[0], v[1], v[2], lo, hi)
	case KApplyBlock:
		s.on.(interface {
			ApplyBlockRange(y, x []float64, k, lo, hi int)
		}).ApplyBlockRange(v[0], v[1], s.k, lo, hi)
	case KApplyAddBlock:
		s.on.(interface {
			ApplyAddBlockRange(y, x []float64, k, lo, hi int)
		}).ApplyAddBlockRange(v[0], v[1], s.k, lo, hi)
	case KResidualBlock:
		s.on.(interface {
			ResidualBlockRange(r, b, x []float64, k, lo, hi int)
		}).ResidualBlockRange(v[0], v[1], v[2], s.k, lo, hi)
	}
}

var shardPool = sync.Pool{New: func() any { return new(shard) }}

// run executes s over rows [0, n): sharded across the kernel pool when
// work meets the par.Par threshold, serially on the caller otherwise.
func (s shard) run(work, n int) {
	if !par.Par(work) {
		s.Do(0, 0, n)
		return
	}
	p := shardPool.Get().(*shard)
	*p = s
	par.Default().Run(n, p)
	*p = shard{}
	shardPool.Put(p)
}

// RunRows runs the Range method of on that kernel names over rows [0, n),
// with the vector arguments v in that method's own order: sharded across
// the kernel pool when work (nonzeros) meets the par.Par threshold,
// serially on the caller otherwise. Matrix implements every Range method
// but ApplyTRange; the matrix-free operators of package op implement the
// subset they shard.
func RunRows(work, n int, kernel Kernel, on any, v ...[]float64) {
	s := shard{kernel: kernel, on: on}
	copy(s.v[:], v)
	s.run(work, n)
}

// ---- row kernels ----

// row returns the column indices and values of row i. Ranging over the two
// sub-slices keeps the inner loop free of the per-entry slice-header
// reloads and rhs-pointer spill the indexed form `for p := RowPtr[i]; ...`
// compiles to.
func (a *Matrix[V, I]) row(i int) ([]I, []V) {
	p0, p1 := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[p0:p1], a.Vals[p0:p1]
}

// ApplyRange computes y[lo:hi] = (A x)[lo:hi], the building block goroutine
// teams split a shared SpMV with.
func (a *Matrix[V, I]) ApplyRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		cols, vals := a.row(i)
		for q, j := range cols {
			s += float64(vals[q]) * x[j]
		}
		y[i] = s
	}
}

// ApplyAddRange computes y[lo:hi] += (A x)[lo:hi]. The row sum accumulates
// fully before the single add.
func (a *Matrix[V, I]) ApplyAddRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		cols, vals := a.row(i)
		for q, j := range cols {
			s += float64(vals[q]) * x[j]
		}
		y[i] += s
	}
}

// ResidualRange computes r[lo:hi] = (b - A x)[lo:hi].
func (a *Matrix[V, I]) ResidualRange(r, b, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := b[i]
		cols, vals := a.row(i)
		for q, j := range cols {
			s -= float64(vals[q]) * x[j]
		}
		r[i] = s
	}
}

// JacobiResidualRange is the fused zero-guess diagonal smoothing sweep +
// residual: for rows [lo, hi) it writes e[i] = invDiag[i]*r[i] (invDiag
// e.g. ω/a_ii for ω-Jacobi or 1/‖a_i‖₁ for ℓ1-Jacobi) and
// t[i] = r[i] − Σ_j a_ij·(invDiag[j]·r[j]). Recomputing invDiag[j]*r[j]
// instead of loading e[j] keeps the pass fused (no ordering hazard on e)
// and rounds identically to Apply followed by Residual.
func (a *Matrix[V, I]) JacobiResidualRange(e, t, invDiag, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		e[i] = invDiag[i] * r[i]
		s := r[i]
		cols, vals := a.row(i)
		for q, j := range cols {
			s -= float64(vals[q]) * (invDiag[j] * r[j])
		}
		t[i] = s
	}
}

// The composed smoothed interpolant P̄ = (I − diag(s)·A)·P needs two
// one-pass forms of "residual against a scaled operand": the prolongation
// tail w = r − s∘(A r) and (using A = Aᵀ) the restriction head
// w = r − A (s∘r). Like the fused Jacobi kernel, the second form
// recomputes s_j·r_j on the fly, so both are single passes with no
// ordering hazard and shard row-independently.

// ScaledResidualRange computes w[lo:hi] = (r − scale∘(A r))[lo:hi].
func (a *Matrix[V, I]) ScaledResidualRange(w, scale, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		cols, vals := a.row(i)
		for q, j := range cols {
			s += float64(vals[q]) * r[j]
		}
		w[i] = r[i] - scale[i]*s
	}
}

// SmoothedResidualRange computes w[lo:hi] = (r − A (scale∘r))[lo:hi].
func (a *Matrix[V, I]) SmoothedResidualRange(w, scale, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := r[i]
		cols, vals := a.row(i)
		for q, j := range cols {
			s -= float64(vals[q]) * (scale[j] * r[j])
		}
		w[i] = s
	}
}

// Diag extracts the main diagonal into a new slice. Missing diagonal entries
// are reported as 0.
func (a *Matrix[V, I]) Diag() []float64 {
	d := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.row(i)
		for q, j := range cols {
			if int(j) == i {
				d[i] = float64(vals[q])
				break
			}
		}
	}
	return d
}

// RowL1Norms returns the l1 norm of each row, sum_j |a_ij|. This is the
// diagonal of the l1-Jacobi smoothing matrix described in the paper
// (Baker, Falgout, Kolev & Yang, "Multigrid smoothers for ultraparallel
// computing").
func (a *Matrix[V, I]) RowL1Norms() []float64 {
	d := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		_, vals := a.row(i)
		for _, v := range vals {
			s += math.Abs(float64(v))
		}
		d[i] = s
	}
	return d
}

// ---- full-vector forms ----

// MatVec computes y = A x serially. len(x) must be a.Cols and len(y) must
// be a.Rows; x and y must not alias.
func (a *Matrix[V, I]) MatVec(y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MatVec dimension mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	a.ApplyRange(y, x, 0, a.Rows)
}

// MatVecAdd computes y += A x serially.
func (a *Matrix[V, I]) MatVecAdd(y, x []float64) { a.ApplyAddRange(y, x, 0, a.Rows) }

// Residual computes r = b - A x serially.
func (a *Matrix[V, I]) Residual(r, b, x []float64) {
	if len(r) != a.Rows || len(b) != a.Rows || len(x) != a.Cols {
		panic("sparse: Residual dimension mismatch")
	}
	a.ResidualRange(r, b, x, 0, a.Rows)
}

// MatVecPar computes y = A x, sharding rows across the kernel pool when
// the matrix is large enough. Bitwise-identical to MatVec.
func (a *Matrix[V, I]) MatVecPar(y, x []float64) {
	RunRows(a.NNZ(), a.Rows, KApply, a, y, x)
}

// MatVecAddPar computes y += A x with the same sharding policy as
// MatVecPar.
func (a *Matrix[V, I]) MatVecAddPar(y, x []float64) {
	RunRows(a.NNZ(), a.Rows, KApplyAdd, a, y, x)
}

// ResidualPar computes r = b - A x, sharding rows across the kernel pool
// when the matrix is large enough. Bitwise-identical to Residual.
func (a *Matrix[V, I]) ResidualPar(r, b, x []float64) {
	RunRows(a.NNZ(), a.Rows, KResidual, a, r, b, x)
}

// ---- fused scatter kernels (float64 pair) ----

// residualRestrictSerial computes rc = pT (b − A x) in one pass over the
// fine rows: each fine row's residual is formed once and immediately
// scattered into the coarse vector through p's row. rc is zeroed first.
// For fixed coarse index c, contributions arrive in ascending fine-row
// order — the same order the gather (pT row c, sorted ascending) sums
// them — so the result is bitwise-identical to Residual followed by
// pT.MatVec.
func residualRestrictSerial(a, p *CSR, rc, b, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		t := b[j]
		cols, vals := a.row(j)
		for q, c := range cols {
			t -= vals[q] * x[c]
		}
		cols, vals = p.row(j)
		for q, c := range cols {
			rc[c] += vals[q] * t
		}
	}
}

// FusedResidualRestrict computes rc = Pᵀ (b − A x): the residual of the
// fine level restricted to the coarse level, the down-leg step of every
// multiplicative V-cycle. Below the parallel threshold it runs as a
// single fused scatter pass with no intermediate fine-length vector read
// back from memory; above it, it runs as a sharded residual into tmp
// followed by a sharded gather with pT. Both paths are bitwise-identical.
// tmp must be a fine-length scratch vector (used by the parallel path);
// pT must be p's transpose (pass nil to force the serial scatter path).
func FusedResidualRestrict(a, p, pT *CSR, rc, b, x, tmp []float64) {
	if pT == nil || !par.Par(a.NNZ()+p.NNZ()) {
		for i := range rc {
			rc[i] = 0
		}
		residualRestrictSerial(a, p, rc, b, x, 0, a.Rows)
		return
	}
	a.ResidualPar(tmp, b, x)
	pT.MatVecPar(rc, tmp)
}

// jacobiResidualRestrictSerial is the triple-fused down-leg step for
// diagonal smoothers: pre-smooth (e = D⁻¹ r), post-smoothing residual,
// and scatter restriction through p, all in one pass over the fine rows.
// rc must be zeroed by the caller.
func jacobiResidualRestrictSerial(a, p *CSR, e, rc, invDiag, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		e[i] = invDiag[i] * r[i]
		t := r[i]
		cols, vals := a.row(i)
		for q, j := range cols {
			t -= vals[q] * (invDiag[j] * r[j])
		}
		cols, vals = p.row(i)
		for q, c := range cols {
			rc[c] += vals[q] * t
		}
	}
}

// FusedJacobiResidualRestrict fuses an entire multiplicative-cycle
// down-leg level step for diagonal smoothers: pre-smooth e = D⁻¹ r,
// compute the post-smoothing residual, and restrict it to the coarse
// level, rc = Pᵀ (r − A D⁻¹ r). Serial mode is one pass over the fine
// matrix; parallel mode runs the fused sweep+residual sharded into tmp
// and then a sharded gather with pT. Both are bitwise-identical to the
// three-step sequence (Apply; Residual; pT.MatVec). tmp must be a
// fine-length scratch; pT must be p's transpose (nil forces serial).
func FusedJacobiResidualRestrict(a, p, pT *CSR, e, rc, invDiag, r, tmp []float64) {
	if pT == nil || !par.Par(a.NNZ()+p.NNZ()) {
		for i := range rc {
			rc[i] = 0
		}
		jacobiResidualRestrictSerial(a, p, e, rc, invDiag, r, 0, a.Rows)
		return
	}
	RunRows(a.NNZ(), a.Rows, KJacobiResidual, a, e, tmp, invDiag, r)
	pT.MatVecPar(rc, tmp)
}
