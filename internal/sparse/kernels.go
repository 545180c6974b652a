// CSR row kernels and their sharding.
//
// Every row kernel is written once, as a serial Range method on
// Matrix[V, I] computing the half-open row range [lo, hi): stored values
// convert to float64 at load and every row accumulates in float64 over its
// entries in ascending column order, so only the stored entries themselves
// are rounded (once, at conversion) and the float64/int, float64/uint32
// and float32/uint32 instantiations differ in nothing but bytes streamed
// (16, 12 and 8 per nonzero). Every kernel takes
// one vector: with the operators resident in cache a k-column block SpMV
// costs about k single ones (EXPERIMENTS.md, "Block path deleted").
//
// Full-vector kernels shard their row loop over the shared par.Default()
// worker pool through RunApply and its siblings when the operand carries
// enough work (measured in nonzeros, par.Par) and run serially on the
// caller otherwise. Because row loops are independent, a sharded kernel is
// bitwise-identical to its serial form at any worker count. Shard
// descriptors are recycled through a par.FreeList, so the steady state
// allocates nothing. The setup GEMM dispatches through par.Run instead:
// it runs a few times per setup, not per cycle.
package sparse

import (
	"fmt"
	"math"

	"asyncmg/internal/par"
)

// ---- the one shard dispatcher ----

// The Range method sets the sharded kernels run. Each full-vector kernel
// hands its operand over as one of them, converted where the operand's
// type is known, so no shard asserts a type at run time: an assertion to
// an interface grows its cache, which allocates, on about 1 in 1 024
// misses, however long the program has run.
type (
	// ApplyRanger computes y = A x on rows [lo, hi).
	ApplyRanger interface {
		ApplyRange(y, x []float64, lo, hi int)
	}
	// ApplyAddRanger computes y += A x on rows [lo, hi).
	ApplyAddRanger interface {
		ApplyAddRange(y, x []float64, lo, hi int)
	}
	// ApplyTRanger computes y = Aᵀ x on rows [lo, hi) of Aᵀ.
	ApplyTRanger interface {
		ApplyTRange(y, x []float64, lo, hi int)
	}
	// ResidualRanger computes r = b − A x on rows [lo, hi).
	ResidualRanger interface {
		ResidualRange(r, b, x []float64, lo, hi int)
	}
)

// shard is the one reusable descriptor behind every sharded full-vector
// kernel: the one Range method set that is not nil, with the vector
// arguments v in that method's own order.
type shard struct {
	apply    ApplyRanger
	applyAdd ApplyAddRanger
	applyT   ApplyTRanger
	residual ResidualRanger
	v        [3][]float64
}

// Do runs the described kernel on rows [lo, hi).
func (s *shard) Do(_, lo, hi int) {
	v := &s.v
	switch {
	case s.apply != nil:
		s.apply.ApplyRange(v[0], v[1], lo, hi)
	case s.applyAdd != nil:
		s.applyAdd.ApplyAddRange(v[0], v[1], lo, hi)
	case s.applyT != nil:
		s.applyT.ApplyTRange(v[0], v[1], lo, hi)
	default:
		s.residual.ResidualRange(v[0], v[1], v[2], lo, hi)
	}
}

var shards par.FreeList[shard]

// run executes s over rows [0, n): sharded across the kernel pool when
// work (nonzeros) meets the par.Par threshold, serially on the caller
// otherwise.
func (s *shard) run(work, n int) {
	if !par.Par(work) {
		s.Do(0, 0, n)
		return
	}
	p := shards.Get(func() *shard { return new(shard) })
	*p = *s
	par.Default().Run(n, p)
	*p = shard{}
	shards.Put(p)
}

// RunApply runs on.ApplyRange(y, x, ·) over rows [0, n), sharded when
// work meets the par.Par threshold. RunApplyAdd, RunApplyT and
// RunResidual are the same for the other three method sets. Matrix
// implements every Range method but ApplyTRange; the matrix-free
// operators and interpolants of package op implement the ones they shard.
func RunApply(work, n int, on ApplyRanger, y, x []float64) {
	(&shard{apply: on, v: [3][]float64{y, x}}).run(work, n)
}

func RunApplyAdd(work, n int, on ApplyAddRanger, y, x []float64) {
	(&shard{applyAdd: on, v: [3][]float64{y, x}}).run(work, n)
}

func RunApplyT(work, n int, on ApplyTRanger, y, x []float64) {
	(&shard{applyT: on, v: [3][]float64{y, x}}).run(work, n)
}

func RunResidual(work, n int, on ResidualRanger, r, b, x []float64) {
	(&shard{residual: on, v: [3][]float64{r, b, x}}).run(work, n)
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
	RunApply(a.NNZ(), a.Rows, a, y, x)
}

// MatVecAddPar computes y += A x with the same sharding policy as
// MatVecPar.
func (a *Matrix[V, I]) MatVecAddPar(y, x []float64) {
	RunApplyAdd(a.NNZ(), a.Rows, a, y, x)
}

// ResidualPar computes r = b - A x, sharding rows across the kernel pool
// when the matrix is large enough. Bitwise-identical to Residual.
func (a *Matrix[V, I]) ResidualPar(r, b, x []float64) {
	RunResidual(a.NNZ(), a.Rows, a, r, b, x)
}
