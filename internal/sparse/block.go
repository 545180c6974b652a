// Block (multi-RHS) CSR kernels.
//
// A block vector packs k right-hand sides row-major: X[i*k+c] is row i of
// column c, so the k values of one matrix row sit contiguously and a block
// SpMV streams A exactly once for all k columns. engine.BlockCycle is the
// only caller.
//
// Every block kernel is constructed to be bitwise-identical, column by
// column, to k invocations of the corresponding single-vector kernel: the
// inner q-loop visits nonzeros in the same ascending order and each
// column's accumulation is an independent float64 chain, so y[i*k+c]
// rounds exactly as the serial y[i] of column c. RunBlock shards rows on
// the par pool like the single-vector wrappers (row loops are independent,
// so sharding preserves bitwise identity for any worker count).
package sparse

import "fmt"

// ApplyBlockRange computes rows [lo, hi) of Y = A X for k packed columns.
func (a *Matrix[V, I]) ApplyBlockRange(y, x []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		yi := y[i*k : (i+1)*k]
		for c := range yi {
			yi[c] = 0
		}
		cols, vals := a.row(i)
		for q, j := range cols {
			v := float64(vals[q])
			xj := x[int(j)*k : (int(j)+1)*k]
			for c := range yi {
				yi[c] += v * xj[c]
			}
		}
	}
}

// ApplyAddBlockRange computes rows [lo, hi) of Y += A X for k packed
// columns. The row sum accumulates in a fresh accumulator per column and
// is added to y once, matching ApplyAddRange's `y[i] += s` association so
// the result rounds identically to the single-vector kernel.
func (a *Matrix[V, I]) ApplyAddBlockRange(y, x []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		yi := y[i*k : (i+1)*k]
		cols, vals := a.row(i)
		for c := range yi {
			s := 0.0
			for q, j := range cols {
				s += float64(vals[q]) * x[int(j)*k+c]
			}
			yi[c] += s
		}
	}
}

// ResidualBlockRange computes rows [lo, hi) of R = B − A X for k packed
// columns. r and b may alias.
func (a *Matrix[V, I]) ResidualBlockRange(r, b, x []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := r[i*k : (i+1)*k]
		bi := b[i*k : (i+1)*k]
		copy(ri, bi)
		cols, vals := a.row(i)
		for q, j := range cols {
			v := float64(vals[q])
			xj := x[int(j)*k : (int(j)+1)*k]
			for c := range ri {
				ri[c] -= v * xj[c]
			}
		}
	}
}

// RunBlock runs one of the three block kernels over all rows: Y = A X
// (KApplyBlock), Y += A X (KApplyAddBlock) or Y = B − A X (KResidualBlock;
// b is ignored by the other two) for k packed columns. It validates the
// operand shapes and shards rows across the kernel pool when the matrix
// carries enough work (k times the single-vector work).
func (a *Matrix[V, I]) RunBlock(kernel Kernel, y, b, x []float64, k int) {
	if k <= 0 || len(x) != a.Cols*k || len(y) != a.Rows*k {
		panic(fmt.Sprintf("sparse: block kernel dimension mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, k, len(x), len(y)))
	}
	s := shard{kernel: kernel, on: a, v: [4][]float64{y, x}, k: k}
	if kernel == KResidualBlock {
		if len(b) != a.Rows*k {
			panic(fmt.Sprintf("sparse: block residual rhs length %d, want %d", len(b), a.Rows*k))
		}
		s.v = [4][]float64{y, b, x}
	}
	s.run(a.NNZ()*k, a.Rows)
}
