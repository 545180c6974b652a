// Parallel setup-phase kernels: the two-pass sparse GEMM, the fused
// Galerkin triple product, and the sharded transpose.
//
// MatMul is the dominant cost of the AMG setup phase (two products per
// level for the Galerkin RAP; the first, A·P, is kept on the level and
// Multadd's smoothed interpolant is formed from it), so it is written as
// a Gustavson row-merge split into a symbolic pass (count each output
// row's nonzeros) and a numeric pass (accumulate values into exactly
// pre-sized storage):
//
//   - Both passes are row-partitioned over the shared par.Default() pool.
//     Rows of C are independent, so the sharded result is bitwise-identical
//     to the serial one for any worker count.
//   - The symbolic pass writes per-row counts directly into C.RowPtr,
//     which a serial prefix sum then turns into the final row pointers —
//     ColIdx and Vals are allocated once at their exact size, with no
//     append regrowth anywhere.
//   - Each worker's dense marker/accumulator scratch (one int and one
//     float64 per column of B, plus a column-collection buffer) is
//     recycled through a par.FreeList, which keeps one scratch per
//     concurrent worker across GCs. Markers carry a per-scratch
//     generation stamp instead of being cleared between rows or calls,
//     so steady-state re-setup of an unchanged-size hierarchy performs
//     no marker/accumulator heap allocations (gemmScratches.Made).
//
// The numeric pass accumulates acc[j] += a_ik * b_kj in exactly the same
// (k ascending, then q ascending) order as the previous fused serial
// implementation, so values round identically and golden residual
// histories are preserved.
package sparse

import (
	"fmt"
	"sort"

	"asyncmg/internal/par"
)

// gemmScratch is one worker's dense workspace for the two-pass GEMM:
// marker[j] holds the generation stamp of the last row that touched
// column j, acc[j] the accumulated value for that row, cols the
// collection of touched columns awaiting the sorted write-back.
type gemmScratch struct {
	marker []int
	acc    []float64
	cols   []int
	gen    int
}

var gemmScratches par.FreeList[gemmScratch]

// acquireGemmScratch returns an idle scratch with capacity for `cols`
// columns. Growing an undersized scratch re-allocates its dense arrays,
// but a same-size reuse costs nothing and keeps stale markers valid: the
// generation stamp only moves forward.
func acquireGemmScratch(cols int) *gemmScratch {
	s := gemmScratches.Get(func() *gemmScratch { return new(gemmScratch) })
	if cap(s.marker) < cols {
		s.marker = make([]int, cols)
		s.acc = make([]float64, cols)
		s.gen = 0 // fresh markers are all zero; stamps start at 1
	}
	s.marker = s.marker[:cols]
	s.acc = s.acc[:cols]
	return s
}

// gemmProduct is one product C = A·B and the descriptor both its passes
// shard: pass 0 counts each row's nonzeros into C.RowPtr[i+1], pass 1
// fills C's exactly sized ColIdx/Vals. C lives inside it, so a product
// allocates this one object and C's three arrays.
type gemmProduct[I Index] struct {
	c    Matrix[float64, I]
	a, b *Matrix[float64, I]
	pass int
}

func (k *gemmProduct[I]) Do(_, lo, hi int) {
	a, b, c := k.a, k.b, &k.c
	s := acquireGemmScratch(b.Cols)
	for i := lo; i < hi; i++ {
		s.gen++
		g := s.gen
		if k.pass == 0 {
			cnt := 0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				kk := a.ColIdx[p]
				for q := b.RowPtr[kk]; q < b.RowPtr[kk+1]; q++ {
					j := b.ColIdx[q]
					if s.marker[j] != g {
						s.marker[j] = g
						cnt++
					}
				}
			}
			c.RowPtr[i+1] = I(cnt)
			continue
		}
		s.cols = s.cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			kk := a.ColIdx[p]
			av := a.Vals[p]
			for q := b.RowPtr[kk]; q < b.RowPtr[kk+1]; q++ {
				j := b.ColIdx[q]
				if s.marker[j] != g {
					s.marker[j] = g
					s.acc[j] = 0
					s.cols = append(s.cols, int(j))
				}
				s.acc[j] += av * b.Vals[q]
			}
		}
		sort.Ints(s.cols)
		base := int(c.RowPtr[i])
		for z, j := range s.cols {
			c.ColIdx[base+z] = I(j)
			c.Vals[base+z] = s.acc[j]
		}
	}
	gemmScratches.Put(s)
}

// MatMul computes the sparse product C = A B with a two-pass (symbolic +
// numeric) Gustavson row-merge. Rows of C come out sorted, ColIdx/Vals
// are allocated at their exact final size, and both passes shard the row
// loop over the kernel pool when the product carries enough work. The
// result is bitwise-identical to the serial single-worker product for
// any worker count (rows are independent, and per-row accumulation
// order never changes). It panics if C's entry count does not fit I.
func MatMul[I Index](a, b *Matrix[float64, I]) *Matrix[float64, I] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch: %dx%d times %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := &gemmProduct[I]{c: Matrix[float64, I]{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]I, a.Rows+1)}, a: a, b: b}
	c := &k.c
	// The flop estimate nnz(A)·(B's mean row density + 1) drives dispatch.
	work := a.NNZ() * (b.NNZ()/max(b.Rows, 1) + 1)

	// Symbolic pass: per-row nonzero counts into RowPtr[i+1].
	par.Run(work, a.Rows, k)

	// Exact prefix-sum allocation: no append regrowth downstream.
	nnz := 0
	for i := 1; i <= a.Rows; i++ {
		nnz += int(c.RowPtr[i])
		c.RowPtr[i] = I(nnz)
	}
	if err := Fits[I](nnz); err != nil {
		panic(err)
	}
	c.ColIdx = make([]I, nnz)
	c.Vals = make([]float64, nnz)

	// Numeric pass: accumulate and write each row into its exact slot.
	k.pass = 1
	par.Run(work, a.Rows, k)
	k.a, k.b = nil, nil // C keeps k alive, not the factors
	return c
}

// RAPWith computes the Galerkin triple product A_c = Pᵀ·(A·P) with a
// caller-provided transpose of P, and returns it beside the intermediate
// product A·P. The AMG hierarchy builder computes one (parallel)
// transpose per level and threads it into both the triple product here
// and the solver-facing hierarchy view, so nothing downstream ever
// re-transposes an interpolant; it keeps A·P on the level, where the
// engine forms the smoothed interpolant P − diag(s)·A·P from it without
// a second product.
func RAPWith[I Index](a, p, pT *Matrix[float64, I]) (ac, ap *Matrix[float64, I]) {
	if pT.Rows != p.Cols || pT.Cols != p.Rows {
		panic(fmt.Sprintf("sparse: RAPWith transpose shape mismatch: P is %dx%d, PT is %dx%d",
			p.Rows, p.Cols, pT.Rows, pT.Cols))
	}
	ap = MatMul(a, p)
	return MatMul(pT, ap), ap
}

// ---- sharded transpose ----

// transScratch is the reusable per-call workspace of the parallel
// transpose: one column-count array per worker, carved out of a single
// flat backing slice.
type transScratch struct {
	flat   []int
	counts [][]int
}

var transScratches par.FreeList[transScratch]

func acquireTransScratch(workers, cols int) *transScratch {
	s := transScratches.Get(func() *transScratch { return new(transScratch) })
	if cap(s.flat) < workers*cols {
		s.flat = make([]int, workers*cols)
	}
	s.flat = s.flat[:workers*cols]
	if cap(s.counts) < workers {
		s.counts = make([][]int, workers)
	}
	s.counts = s.counts[:workers]
	for w := 0; w < workers; w++ {
		s.counts[w] = s.flat[w*cols : (w+1)*cols]
	}
	return s
}

// transposeCountKernel counts, per shard, how many entries of A fall in
// each column. Each shard zeroes and fills only its own count array.
type transposeCountKernel[V Value, I Index] struct {
	a      *Matrix[V, I]
	counts [][]int
}

func (k *transposeCountKernel[V, I]) Do(shard, lo, hi int) {
	cnt := k.counts[shard]
	for j := range cnt {
		cnt[j] = 0
	}
	a := k.a
	for p := a.RowPtr[lo]; p < a.RowPtr[hi]; p++ {
		cnt[a.ColIdx[p]]++
	}
}

// transposeScatterKernel writes each shard's entries into its
// pre-computed disjoint slots (counts rewritten as next-write cursors).
type transposeScatterKernel[V Value, I Index] struct {
	a, t *Matrix[V, I]
	next [][]int
}

func (k *transposeScatterKernel[V, I]) Do(shard, lo, hi int) {
	next := k.next[shard]
	a, t := k.a, k.t
	for i := lo; i < hi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			q := next[j]
			next[j]++
			t.ColIdx[q] = I(i)
			t.Vals[q] = a.Vals[p]
		}
	}
}

// transposePar is the sharded counting-sort transpose: a parallel
// per-shard column count, a serial O(workers·cols) offset combine, and
// a parallel scatter into disjoint slots. For every output row j, shard
// s's entries land after those of shards < s and are ordered by source
// row within the shard, so the global order is source-row ascending —
// exactly the serial result.
func (a *Matrix[V, I]) transposePar(t *Matrix[V, I]) {
	pool := par.Default()
	w := pool.Workers()
	s := acquireTransScratch(w, a.Cols)

	pool.Run(a.Rows, &transposeCountKernel[V, I]{a, s.counts})

	// Combine: column totals into RowPtr, then rewrite each live shard's
	// counts as its starting offset within the column's slot range.
	// Shards with empty row ranges never ran and hold stale counts; skip
	// them (they contribute nothing and will not scatter either).
	live := make([]bool, w)
	for shard := 0; shard < w; shard++ {
		lo, hi := par.ShardRange(a.Rows, w, shard)
		live[shard] = lo < hi
	}
	for j := 0; j < a.Cols; j++ {
		total := 0
		for shard := 0; shard < w; shard++ {
			if live[shard] {
				total += s.counts[shard][j]
			}
		}
		t.RowPtr[j+1] = t.RowPtr[j] + I(total)
	}
	for j := 0; j < a.Cols; j++ {
		off := int(t.RowPtr[j])
		for shard := 0; shard < w; shard++ {
			if !live[shard] {
				continue
			}
			c := s.counts[shard][j]
			s.counts[shard][j] = off
			off += c
		}
	}

	pool.Run(a.Rows, &transposeScatterKernel[V, I]{a, t, s.counts})

	transScratches.Put(s)
}
