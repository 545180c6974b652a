package amg

import (
	"math"
	"math/bits"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// InterpType selects how prolongation operators are built.
type InterpType int

const (
	// ClassicalModified is Ruge-Stüben classical interpolation with the
	// standard modifications for weak connections and non-M-matrix rows
	// (weak couplings lumped to the diagonal; strong F-F connections
	// distributed through shared C points, falling back to diagonal lumping
	// when no shared C point exists). This is BoomerAMG's "classical
	// modified interpolation" used throughout the paper.
	ClassicalModified InterpType = iota
	// Multipass interpolation interpolates rows with no direct C
	// neighbours through already-interpolated neighbours in successive
	// passes. Required for aggressive coarsening, where F points can be
	// distance two from every C point.
	Multipass
)

func (t InterpType) String() string {
	switch t {
	case ClassicalModified:
		return "classical-modified"
	case Multipass:
		return "multipass"
	}
	return "unknown"
}

// coarseIndex numbers the C points consecutively; -1 for F points.
func coarseIndex(types []PointType) (idx []int, nc int) {
	idx = make([]int, len(types))
	for i, t := range types {
		idx[i] = -1
		if t == CPoint {
			idx[i], nc = nc, nc+1
		}
	}
	return
}

// interpolate builds P for the splitting with the requested scheme,
// truncated as truncateRow documents, and reports the most untruncated
// composed entries multipass held at once (0 for the other schemes). C
// rows are identity rows; a non-nil fun restricts the multipass row sums
// to same-function couplings (the unknown approach).
func interpolate(a *sparse.CSR, s *Strength, types []PointType, typ InterpType, fun []int, maxPerRow int) (*sparse.CSR, int) {
	cidx, nc := coarseIndex(types)
	strong, rowCap := strongMask(a, s, types)
	st := newStagedRows(nc, rowCap)
	if typ == Multipass {
		peak := multipassInterp(a, strong, types, cidx, fun, st, maxPerRow)
		return st.toCSR(0), peak
	}
	par.Run(a.NNZ(), a.Rows, &classicalInterpKernel{a: a, strong: strong, types: types, cidx: cidx, st: st})
	return st.toCSR(maxPerRow), 0
}

// strongMask flags the strong connections on A's own pattern: mask[q] is
// true when entry q of row i has its column in s.Rows[i]. StrengthGraphFunc
// lists a row's strong columns in the order the matrix row has them, so
// one two-pointer walk per row finds them all. rowCap[i] bounds the row of
// P built from the strong C neighbours of row i: one entry per neighbour,
// or one for a C point.
func strongMask(a *sparse.CSR, s *Strength, types []PointType) (mask []bool, rowCap []int) {
	mask, rowCap = make([]bool, a.NNZ()), make([]int, a.Rows)
	for i, sr := range s.Rows {
		z := 0
		for q := a.RowPtr[i]; q < a.RowPtr[i+1] && z < len(sr); q++ {
			if a.ColIdx[q] == sr[z] {
				mask[q] = true
				if types[sr[z]] == CPoint {
					rowCap[i]++
				}
				z++
			}
		}
		if types[i] == CPoint {
			rowCap[i] = 1
		}
	}
	return mask, rowCap
}

// stagedRows holds rows of P between their computation and the exactly
// sized CSR. Row i is the pair cols[i], vals[i], a window into a flat arena
// (newStagedRows) or, for a composed multipass row, into slabs.
type stagedRows struct {
	nc   int
	cols [][]int
	vals [][]float64
}

// newStagedRows gives row i an empty window of capacity rowCap[i] in one
// flat arena; put fills the windows, each row its own, so sharded kernels
// never meet.
func newStagedRows(nc int, rowCap []int) *stagedRows {
	n := len(rowCap)
	total := 0
	for _, c := range rowCap {
		total += c
	}
	st := &stagedRows{nc: nc, cols: make([][]int, n), vals: make([][]float64, n)}
	cols, vals := make([]int, total), make([]float64, total)
	lo := 0
	for i, c := range rowCap {
		st.cols[i] = cols[lo : lo : lo+c]
		st.vals[i] = vals[lo : lo : lo+c]
		lo += c
	}
	return st
}

// put appends one entry to row i, within the window newStagedRows gave it.
func (st *stagedRows) put(i, col int, val float64) {
	st.cols[i] = append(st.cols[i], col)
	st.vals[i] = append(st.vals[i], val)
}

// toCSR packs the staged rows into a CSR sized exactly by a prefix sum over
// the row lengths, first truncating each row in place when maxPerRow > 0
// asks for it. Rows are independent, so both sweeps shard over
// the kernel pool, and the result is bitwise-identical to serial for any
// worker count.
func (st *stagedRows) toCSR(maxPerRow int) *sparse.CSR {
	n := len(st.cols)
	if maxPerRow > 0 {
		entries := 0
		for _, c := range st.cols {
			entries += len(c)
		}
		// truncateRow reads each entry twice, then once per selection pass.
		par.Run(entries*(2+maxPerRow), n, &truncateKernel{st: st, maxPerRow: maxPerRow})
	}
	p := &sparse.CSR{Rows: n, Cols: st.nc, RowPtr: make([]int, n+1)}
	for i, c := range st.cols {
		p.RowPtr[i+1] = p.RowPtr[i] + len(c)
	}
	p.ColIdx = make([]int, p.RowPtr[n])
	p.Vals = make([]float64, p.RowPtr[n])
	par.Run(p.RowPtr[n], n, &packKernel{st: st, p: p})
	return p
}

// packKernel copies staged rows to their places in the CSR.
type packKernel struct {
	st *stagedRows
	p  *sparse.CSR
}

func (k *packKernel) Do(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(k.p.ColIdx[k.p.RowPtr[i]:], k.st.cols[i])
		copy(k.p.Vals[k.p.RowPtr[i]:], k.st.vals[i])
	}
}

// truncateKernel truncates staged rows in place: the rows listed in rows,
// or every row when rows is nil.
type truncateKernel struct {
	st        *stagedRows
	rows      []int
	maxPerRow int
}

func (k *truncateKernel) Do(_, lo, hi int) {
	for z := lo; z < hi; z++ {
		i := z
		if k.rows != nil {
			i = k.rows[z]
		}
		cols, vals := k.st.cols[i], k.st.vals[i]
		keep := truncateRow(cols, vals, k.maxPerRow)
		k.st.cols[i], k.st.vals[i] = cols[:keep], vals[:keep]
	}
}

// truncateRow is BoomerAMG's interpolation truncation of one row, in
// place: keep the maxPerRow largest magnitudes (<= 0: all), rescale them
// to the old row sum, and return how many were kept, in column order at
// the front of the row.
func truncateRow(cols []int, vals []float64, maxPerRow int) int {
	keep := len(vals)
	if maxPerRow <= 0 || keep <= maxPerRow {
		return keep
	}
	rowSum := 0.0
	for _, v := range vals {
		rowSum += v
	}
	// Selection of the top maxPerRow by magnitude; ties go to the entry
	// that comes first in the order the earlier swaps left.
	for a := 0; a < maxPerRow; a++ {
		best, bestMag := a, math.Abs(vals[a])
		for b := a + 1; b < keep; b++ {
			if m := math.Abs(vals[b]); m > bestMag {
				best, bestMag = b, m
			}
		}
		cols[a], cols[best] = cols[best], cols[a]
		vals[a], vals[best] = vals[best], vals[a]
	}
	keep = maxPerRow
	// Restore column order (the columns of a row are distinct).
	for a := 1; a < keep; a++ {
		c, v := cols[a], vals[a]
		b := a
		for ; b > 0 && cols[b-1] > c; b-- {
			cols[b], vals[b] = cols[b-1], vals[b-1]
		}
		cols[b], vals[b] = c, v
	}
	keptSum := 0.0
	for _, v := range vals[:keep] {
		keptSum += v
	}
	scale := 1.0
	if keptSum != 0 && rowSum != 0 {
		scale = rowSum / keptSum
	}
	for z := range vals[:keep] {
		vals[z] *= scale
	}
	return keep
}

// directInterpKernel builds direct interpolation:
//
//	w_ij = -α_i a_ij / a_ii,  α_i = Σ_{k≠i} a_ik / Σ_{j∈C_i} a_ij
//
// which preserves row sums (interpolates constants exactly for zero-row-sum
// operators). Rows with no strong C neighbour or a degenerate denominator
// get an empty P row (no coarse correction for that point). It is pass 1
// of multipass interpolation, which reads done to learn which rows now
// have a stencil.
//
// The row loop is sharded over the kernel pool: each row reads only A,
// the splitting and the strength mask (all read-only here) and writes its
// own slot (and done flag), so the result is bitwise-identical to serial.
type directInterpKernel struct {
	a      *sparse.CSR
	strong []bool
	types  []PointType
	cidx   []int
	fun    []int
	st     *stagedRows
	done   []bool
}

func (k *directInterpKernel) Do(_, lo, hi int) {
	a, strong, types := k.a, k.strong, k.types
	for i := lo; i < hi; i++ {
		if types[i] == CPoint {
			k.st.put(i, k.cidx[i], 1)
		} else if alpha, diag, ok := directAlpha(a, strong, k.fun, i, types, CPoint); ok {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				if j := a.ColIdx[q]; j != i && types[j] == CPoint && strong[q] {
					k.st.put(i, k.cidx[j], -alpha*a.Vals[q]/diag)
				}
			}
		}
		k.done[i] = len(k.st.cols[i]) > 0
	}
}

// directAlpha returns the diagonal of F row i and α_i = Σ_{j≠i} a_ij /
// Σ_k a_ik, both sums over same-function couplings and the second over the
// strong neighbours k with set[k] == in: the C points for direct
// interpolation, the rows done so far for multipass. ok is false when the
// diagonal or the second sum is 0.
func directAlpha[T comparable](a *sparse.CSR, strong []bool, fun []int, i int, set []T, in T) (alpha, diag float64, ok bool) {
	var rowSum, inSum float64
	for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
		j := a.ColIdx[q]
		v := a.Vals[q]
		if j == i {
			diag = v
			continue
		}
		if fun != nil && fun[i] != fun[j] {
			continue
		}
		rowSum += v
		if strong[q] && set[j] == in {
			inSum += v
		}
	}
	if diag == 0 || inSum == 0 {
		return 0, 0, false
	}
	return rowSum / inSum, diag, true
}

// classicalInterpKernel builds Ruge-Stüben classical interpolation with the
// "modified" treatment:
//
//	w_ij = -( a_ij + Σ_{k∈Fs_i} a_ik ā_kj / Σ_{m∈C_i} ā_km ) / ( a_ii + Σ_{n∈Nw_i} a_in )
//
// where Fs_i are strong F neighbours, C_i strong C neighbours, Nw_i weak
// neighbours, and ā are entries filtered to the sign opposite the diagonal
// (the modification that keeps the formula stable on non-M matrices). A
// strong F neighbour k with no C point shared with i is lumped onto the
// diagonal instead.
// The row loop is sharded over the kernel pool: the slot/cols/wts
// workspace is per-worker, every other input is read-only during the
// sweep, and each row stages into its own slot — bitwise-identical to
// serial for any worker count.
type classicalInterpKernel struct {
	a      *sparse.CSR
	strong []bool
	types  []PointType
	cidx   []int
	st     *stagedRows
}

func (k *classicalInterpKernel) Do(_, lo, hi int) {
	a, strong, types, cidx, st := k.a, k.strong, k.types, k.cidx, k.st

	// Per-worker workspace mapping coarse column -> accumulator slot for
	// the current row.
	slot := make([]int, a.Rows)
	for i := range slot {
		slot[i] = -1
	}
	var cols []int
	var wts []float64

	for i := lo; i < hi; i++ {
		if types[i] == CPoint {
			st.put(i, cidx[i], 1)
			continue
		}
		cols = cols[:0]
		wts = wts[:0]
		diag := 0.0
		// First sweep: collect C_i (strong C neighbours) and the diagonal,
		// lump weak connections onto the diagonal.
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			v := a.Vals[q]
			switch {
			case j == i:
				diag += v
			case strong[q] && types[j] == CPoint:
				slot[j] = len(cols)
				cols = append(cols, j)
				wts = append(wts, v)
			case !strong[q]:
				diag += v // weak neighbours (C or F) are lumped
			}
		}
		diagSign := 1.0
		if diag < 0 {
			diagSign = -1
		}
		// Second sweep: distribute strong F neighbours through shared C
		// points.
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			k := a.ColIdx[q]
			if k == i || !strong[q] || types[k] != FPoint {
				continue
			}
			aik := a.Vals[q]
			// Denominator: Σ over C_i of the sign-filtered a_km.
			den := 0.0
			for r := a.RowPtr[k]; r < a.RowPtr[k+1]; r++ {
				m := a.ColIdx[r]
				if m == k || slot[m] < 0 {
					continue
				}
				if a.Vals[r]*diagSign < 0 { // sign opposite the diagonal
					den += a.Vals[r]
				}
			}
			if den == 0 {
				// No usable shared C point: lump a_ik onto the diagonal.
				diag += aik
				continue
			}
			scale := aik / den
			for r := a.RowPtr[k]; r < a.RowPtr[k+1]; r++ {
				m := a.ColIdx[r]
				if m == k || slot[m] < 0 {
					continue
				}
				if a.Vals[r]*diagSign < 0 {
					wts[slot[m]] += scale * a.Vals[r]
				}
			}
		}
		if diag != 0 {
			// cols follows the matrix row, so the staged columns keep its
			// order (ascending for a sorted CSR).
			inv := -1 / diag
			for z, j := range cols {
				if w := wts[z] * inv; w != 0 {
					st.put(i, cidx[j], w)
				}
			}
		}
		for _, j := range cols {
			slot[j] = -1
		}
	}
}

// multipassInterp builds Stüben multipass interpolation, truncated, and
// returns the most untruncated composed entries it held at once. Pass 1
// (sharded) gives direct interpolation to rows with strong C neighbours.
// Later passes interpolate the remaining rows through already-interpolated
// strong neighbours, composing their untruncated rows; they stay serial,
// because a row composes through rows finished earlier in the same sweep
// and that ordering is part of what P is. Rows that never acquire an
// interpolated strong neighbour end up empty.
//
// pending[k] counts the rows not yet done that k strongly influences, the
// only rows that can still compose through k. When it reaches 0 with k
// done, k is released (and pending[k] set to -1): truncated in place by the
// pool, releaseBatch entries at a time, and, if composed, moved to a window
// its truncated length fits. Rows never released by then are truncated at
// the end.
func multipassInterp(a *sparse.CSR, strong []bool, types []PointType, cidx, fun []int, st *stagedRows, maxPerRow int) int {
	n := a.Rows
	done := make([]bool, n)
	par.Run(a.NNZ(), n, &directInterpKernel{a: a, strong: strong, types: types, cidx: cidx, fun: fun, st: st, done: done})

	pending := make([]int32, n)
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if k := a.ColIdx[q]; strong[q] && k != i {
				pending[k]++
			}
		}
	}
	composed := make([]bool, n)       // the row lives in slabs
	slab := slabs{chunk: a.NNZ() / 8} // chunks of nnz(A)/8 entries
	trunc := &truncateKernel{st: st, rows: make([]int, 0, releaseBatch), maxPerRow: maxPerRow}
	var queued, live, queuedLive, peak int // entries queued, untruncated composed (live), and both
	flush := func() {
		par.Run(queued*(2+max(maxPerRow, 0)), len(trunc.rows), trunc)
		for _, k := range trunc.rows {
			if cols, vals := st.cols[k], st.vals[k]; composed[k] && 2*len(cols) <= cap(cols) {
				nc, nv := slab.get(len(cols))
				st.cols[k], st.vals[k] = append(nc, cols...), append(nv, vals...)
				slab.put(cols, vals)
			}
		}
		live -= queuedLive
		trunc.rows, queued, queuedLive = trunc.rows[:0], 0, 0
	}
	release := func(k int) {
		pending[k] = -1
		trunc.rows = append(trunc.rows, k)
		queued += len(st.cols[k])
		if composed[k] {
			queuedLive += len(st.cols[k])
		}
		if queued >= releaseBatch {
			flush()
		}
	}

	acc := make([]float64, st.nc) // zero outside the row being summed
	seen := make([]uint64, (st.nc+63)/64)
	for progress := true; progress; {
		progress = false
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			alpha, diag, ok := directAlpha(a, strong, fun, i, done, true)
			if !ok {
				continue
			}
			// Words lo..hi of seen cover the touched columns: staged rows
			// are in ascending column order, so each spans first to last.
			lo, hi := len(seen), -1
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				k := a.ColIdx[q]
				if k == i || !strong[q] || !done[k] {
					continue
				}
				wk := -alpha * a.Vals[q] / diag
				kc := st.cols[k]
				kv := st.vals[k][:len(kc)]
				lo, hi = min(lo, kc[0]>>6), max(hi, kc[len(kc)-1]>>6)
				for z, c := range kc {
					seen[c>>6] |= 1 << (c & 63)
					acc[c] += wk * kv[z]
				}
			}
			if hi < lo {
				continue
			}
			size := 0
			for _, w := range seen[lo : hi+1] {
				size += bits.OnesCount64(w)
			}
			cols, vals := slab.get(size)
			for w := lo; w <= hi; w++ {
				for word := seen[w]; word != 0; word &= word - 1 {
					c := w<<6 | bits.TrailingZeros64(word)
					cols = append(cols, c)
					vals = append(vals, acc[c])
					acc[c] = 0
				}
				seen[w] = 0
			}
			st.cols[i], st.vals[i] = cols, vals
			done[i], composed[i], progress = true, true, true
			live += size
			peak = max(peak, live)
			// Row i reads nothing any more.
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				if k := a.ColIdx[q]; strong[q] && k != i {
					if pending[k]--; pending[k] == 0 && done[k] {
						release(k)
					}
				}
			}
			if pending[i] == 0 {
				release(i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if done[i] && pending[i] >= 0 {
			release(i)
		}
	}
	flush()
	return peak
}

// releaseBatch is how many entries multipass queues before truncating them,
// a constant so that its peak count is the same at any worker count.
const releaseBatch = 1 << 13

// slabs hands out windows of a power of two entries, carved from chunks
// that never move, recycled through one free list per size.
type slabs struct {
	chunk int
	cols  []int // the chunk being carved
	vals  []float64
	free  [64][]window
}

type window struct {
	cols []int
	vals []float64
}

// get returns an empty window with room for n entries.
func (s *slabs) get(n int) ([]int, []float64) {
	if n == 0 {
		return nil, nil
	}
	c := bits.Len(uint(n - 1))
	if f := len(s.free[c]) - 1; f >= 0 {
		w := s.free[c][f]
		s.free[c] = s.free[c][:f]
		return w.cols, w.vals
	}
	w := 1 << c
	if cap(s.cols)-len(s.cols) < w {
		s.cols, s.vals = make([]int, 0, max(s.chunk, w)), make([]float64, 0, max(s.chunk, w))
	}
	lo := len(s.cols)
	s.cols, s.vals = s.cols[:lo+w], s.vals[:lo+w]
	return s.cols[lo : lo : lo+w], s.vals[lo : lo : lo+w]
}

// put gives a window from get back.
func (s *slabs) put(cols []int, vals []float64) {
	c := bits.Len(uint(cap(cols) - 1))
	s.free[c] = append(s.free[c], window{cols[:0], vals[:0]})
}
