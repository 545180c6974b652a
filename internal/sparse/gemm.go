// Parallel setup-phase kernels: the two-pass sparse GEMM, the fused
// Galerkin triple product, and the sharded transpose.
//
// MatMul is the dominant cost of the AMG setup phase (two products per
// level for the Galerkin RAP, plus one per level for Multadd's smoothed
// interpolants), so it is written as a Gustavson row-merge split into a
// symbolic pass (count each output row's nonzeros) and a numeric pass
// (accumulate values into exactly pre-sized storage):
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
//     recycled through a sync.Pool. Markers carry a per-scratch
//     generation stamp instead of being cleared between rows or calls,
//     so steady-state re-setup of an unchanged-size hierarchy performs
//     no marker/accumulator heap allocations (see GEMMScratchAllocs).
//
// The numeric pass accumulates acc[j] += a_ik * b_kj in exactly the same
// (k ascending, then q ascending) order as the previous fused serial
// implementation, so values round identically and golden residual
// histories are preserved.
package sparse

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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

var gemmScratchPool = sync.Pool{New: func() any {
	gemmScratchNews.Add(1)
	return &gemmScratch{}
}}

// gemmScratchNews counts pool misses (fresh scratch constructions); the
// setup allocation tests pin it to prove steady-state scratch reuse.
var gemmScratchNews atomic.Int64

// GEMMScratchAllocs reports how many GEMM scratch workspaces have been
// constructed process-wide. A steady-state re-setup of an unchanged-size
// hierarchy must not move this counter — the allocation-discipline
// contract enforced by the setup tests.
func GEMMScratchAllocs() int64 { return gemmScratchNews.Load() }

// acquireGemmScratch returns a pooled scratch with capacity for `cols`
// columns. Growing an undersized scratch re-allocates its dense arrays
// (counted as a pool construction would be, via the resize below), but a
// same-size reuse costs nothing and keeps stale markers valid: the
// generation stamp only moves forward.
func acquireGemmScratch(cols int) *gemmScratch {
	s := gemmScratchPool.Get().(*gemmScratch)
	if cap(s.marker) < cols {
		s.marker = make([]int, cols)
		s.acc = make([]float64, cols)
		s.gen = 0 // fresh markers are all zero; stamps start at 1
	}
	s.marker = s.marker[:cols]
	s.acc = s.acc[:cols]
	return s
}

func releaseGemmScratch(s *gemmScratch) { gemmScratchPool.Put(s) }

// gemmSymbolicKernel counts row nonzeros of C = A·B into rowPtr[i+1].
type gemmSymbolicKernel struct {
	a, b   *CSR
	rowPtr []int
}

func (k *gemmSymbolicKernel) Do(_, lo, hi int) {
	a, b := k.a, k.b
	s := acquireGemmScratch(b.Cols)
	for i := lo; i < hi; i++ {
		s.gen++
		g := s.gen
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
		k.rowPtr[i+1] = cnt
	}
	releaseGemmScratch(s)
}

// gemmNumericKernel fills the pre-sized ColIdx/Vals of C = A·B.
type gemmNumericKernel struct {
	a, b, c *CSR
}

func (k *gemmNumericKernel) Do(_, lo, hi int) {
	a, b, c := k.a, k.b, k.c
	s := acquireGemmScratch(b.Cols)
	for i := lo; i < hi; i++ {
		s.gen++
		g := s.gen
		s.cols = s.cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			kk := a.ColIdx[p]
			av := a.Vals[p]
			for q := b.RowPtr[kk]; q < b.RowPtr[kk+1]; q++ {
				j := b.ColIdx[q]
				if s.marker[j] != g {
					s.marker[j] = g
					s.acc[j] = 0
					s.cols = append(s.cols, j)
				}
				s.acc[j] += av * b.Vals[q]
			}
		}
		sort.Ints(s.cols)
		base := c.RowPtr[i]
		for z, j := range s.cols {
			c.ColIdx[base+z] = j
			c.Vals[base+z] = s.acc[j]
		}
	}
	releaseGemmScratch(s)
}

var (
	gemmSymbolicPool = sync.Pool{New: func() any { return new(gemmSymbolicKernel) }}
	gemmNumericPool  = sync.Pool{New: func() any { return new(gemmNumericKernel) }}
)

// gemmWork estimates the flop count of A·B: nnz(A) times the mean row
// density of B. It drives the parallel-dispatch decision.
func gemmWork(a, b *CSR) int {
	if b.Rows == 0 {
		return 0
	}
	return a.NNZ() * (b.NNZ()/b.Rows + 1)
}

// MatMul computes the sparse product C = A B with a two-pass (symbolic +
// numeric) Gustavson row-merge. Rows of C come out sorted, ColIdx/Vals
// are allocated at their exact final size, and both passes shard the row
// loop over the kernel pool when the product carries enough work. The
// result is bitwise-identical to the serial single-worker product for
// any worker count (rows are independent, and per-row accumulation
// order never changes).
func MatMul(a, b *CSR) *CSR {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch: %dx%d times %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	parallel := par.Par(gemmWork(a, b))

	// Symbolic pass: per-row nonzero counts into RowPtr[i+1].
	sym := gemmSymbolicPool.Get().(*gemmSymbolicKernel)
	sym.a, sym.b, sym.rowPtr = a, b, c.RowPtr
	if parallel {
		par.Default().Run(a.Rows, sym)
	} else {
		sym.Do(0, 0, a.Rows)
	}
	*sym = gemmSymbolicKernel{}
	gemmSymbolicPool.Put(sym)

	// Exact prefix-sum allocation: no append regrowth downstream.
	for i := 0; i < a.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	nnz := c.RowPtr[a.Rows]
	c.ColIdx = make([]int, nnz)
	c.Vals = make([]float64, nnz)

	// Numeric pass: accumulate and write each row into its exact slot.
	num := gemmNumericPool.Get().(*gemmNumericKernel)
	num.a, num.b, num.c = a, b, c
	if parallel {
		par.Default().Run(a.Rows, num)
	} else {
		num.Do(0, 0, a.Rows)
	}
	*num = gemmNumericKernel{}
	gemmNumericPool.Put(num)
	return c
}

// RAP computes the Galerkin coarse-grid operator A_c = Pᵀ A P, the
// triple product used at every AMG level. Callers that already hold Pᵀ
// should use RAPWith, which skips the transpose.
func RAP(a, p *CSR) *CSR {
	return RAPWith(a, p, p.Transpose())
}

// RAPWith computes the Galerkin triple product A_c = Pᵀ·(A·P) with a
// caller-provided transpose of P, fusing the two products over one
// cached Pᵀ: the AMG hierarchy builder computes one (parallel)
// transpose per level and threads it into both the triple product here
// and the solver-facing hierarchy view, so nothing downstream ever
// re-transposes an interpolant.
func RAPWith(a, p, pT *CSR) *CSR {
	if pT.Rows != p.Cols || pT.Cols != p.Rows {
		panic(fmt.Sprintf("sparse: RAPWith transpose shape mismatch: P is %dx%d, PT is %dx%d",
			p.Rows, p.Cols, pT.Rows, pT.Cols))
	}
	ap := MatMul(a, p)
	return MatMul(pT, ap)
}

// ---- sharded transpose ----

// transScratch is the pooled per-call workspace of the parallel
// transpose: one column-count array per worker, carved out of a single
// flat backing slice.
type transScratch struct {
	flat   []int
	counts [][]int
}

var transScratchPool = sync.Pool{New: func() any {
	transScratchNews.Add(1)
	return &transScratch{}
}}

var transScratchNews atomic.Int64

// TransposeScratchAllocs reports how many transpose scratch workspaces
// have been constructed process-wide (see GEMMScratchAllocs).
func TransposeScratchAllocs() int64 { return transScratchNews.Load() }

func acquireTransScratch(workers, cols int) *transScratch {
	s := transScratchPool.Get().(*transScratch)
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

func releaseTransScratch(s *transScratch) { transScratchPool.Put(s) }

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

	releaseTransScratch(s)
}
