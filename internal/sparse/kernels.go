// CSR row kernels and their sharding.
//
// Every row kernel is written once, as a serial Range method on
// Matrix[V, I] computing the half-open row range [lo, hi): stored values
// convert to float64 at load and every row accumulates in float64 over its
// entries in ascending column order, so only the stored entries themselves
// are rounded (once, at conversion) and the float64/int and float32/int32
// instantiations differ in nothing but bytes streamed. Every kernel takes
// one vector: with the operators resident in cache a k-column block SpMV
// costs about k single ones (EXPERIMENTS.md, "Block path deleted").
//
// Full-vector kernels shard their row loop over the shared par.Default()
// worker pool through RunRows when the operand carries enough work
// (measured in nonzeros, par.Par) and run serially on the caller
// otherwise. Because row loops are independent, a sharded kernel is
// bitwise-identical to its serial form at any worker count. The one shard
// descriptor is recycled through a sync.Pool, so the steady state
// allocates nothing. The setup kernels (GEMM, sparsification) dispatch
// through par.Run instead: they run a few times per setup, not per cycle.
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
	KApply    Kernel = iota // ApplyRange(y, x, lo, hi): y = A x
	KApplyAdd               // ApplyAddRange(y, x, lo, hi): y += A x
	KApplyT                 // ApplyTRange(y, x, lo, hi): y = Aᵀ x, rows of Aᵀ
	KResidual               // ResidualRange(r, b, x, lo, hi): r = b − A x
)

// shard is the one pooled descriptor behind every sharded full-vector
// kernel: which Range method of on to run, with the vector arguments v in
// that method's own order.
type shard struct {
	kernel Kernel
	on     any
	v      [3][]float64
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
