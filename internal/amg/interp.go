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

// interpolate builds P for the splitting with the requested scheme, then
// truncates every row once as truncateRow documents, and reports how many
// untruncated composed entries multipass staged (0 for the other schemes).
// C rows are identity rows; a non-nil fun restricts the multipass row sums
// to same-function couplings (the unknown approach).
func interpolate[I sparse.Index](a *sparse.Matrix[float64, I], s *Strength, types []PointType, typ InterpType, fun []int, maxPerRow int) (*sparse.Matrix[float64, I], int) {
	cidx, nc := coarseIndex(types)
	strong, rowCap := strongMask(a, s, types)
	st := newStagedRows[I](nc, rowCap)
	staged := 0
	if typ == Multipass {
		staged = multipassInterp(a, strong, types, cidx, fun, st)
	} else {
		par.Run(a.NNZ(), a.Rows, &classicalInterpKernel[I]{a: a, strong: strong, types: types, cidx: cidx, st: st})
	}
	return st.toCSR(maxPerRow), staged
}

// strongMask flags the strong connections on A's own pattern: mask[q] is
// true when entry q of row i has its column in s.Rows[i]. StrengthGraphFunc
// lists a row's strong columns in the order the matrix row has them, so
// one two-pointer walk per row finds them all. rowCap[i] bounds the row of
// P built from the strong C neighbours of row i: one entry per neighbour,
// or one for a C point.
func strongMask[I sparse.Index](a *sparse.Matrix[float64, I], s *Strength, types []PointType) (mask []bool, rowCap []int) {
	mask, rowCap = make([]bool, a.NNZ()), make([]int, a.Rows)
	for i, sr := range s.Rows {
		z := 0
		for q := a.RowPtr[i]; q < a.RowPtr[i+1] && z < len(sr); q++ {
			if int(a.ColIdx[q]) == sr[z] {
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
// (newStagedRows) or, for a composed multipass row, into multipassInterp's
// arena.
type stagedRows[I sparse.Index] struct {
	nc   int
	cols [][]I
	vals [][]float64
}

// newStagedRows gives row i an empty window of capacity rowCap[i] in one
// flat arena; put fills the windows, each row its own, so sharded kernels
// never meet.
func newStagedRows[I sparse.Index](nc int, rowCap []int) *stagedRows[I] {
	n := len(rowCap)
	total := 0
	for _, c := range rowCap {
		total += c
	}
	st := &stagedRows[I]{nc: nc, cols: make([][]I, n), vals: make([][]float64, n)}
	cols, vals := make([]I, total), make([]float64, total)
	lo := 0
	for i, c := range rowCap {
		st.cols[i] = cols[lo : lo : lo+c]
		st.vals[i] = vals[lo : lo : lo+c]
		lo += c
	}
	return st
}

// put appends one entry to row i, within the window newStagedRows gave it.
func (st *stagedRows[I]) put(i, col int, val float64) {
	st.cols[i] = append(st.cols[i], I(col))
	st.vals[i] = append(st.vals[i], val)
}

// toCSR packs the staged rows into a CSR sized exactly by a prefix sum over
// the row lengths, first truncating each row in place when maxPerRow > 0
// asks for it. Rows are independent, so both sweeps shard over
// the kernel pool, and the result is bitwise-identical to serial for any
// worker count.
func (st *stagedRows[I]) toCSR(maxPerRow int) *sparse.Matrix[float64, I] {
	n := len(st.cols)
	if maxPerRow > 0 {
		entries := 0
		for _, c := range st.cols {
			entries += len(c)
		}
		// truncateRow reads each entry twice, then once per selection pass.
		par.Run(entries*(2+maxPerRow), n, &truncateKernel[I]{st: st, maxPerRow: maxPerRow})
	}
	p := &sparse.Matrix[float64, I]{Rows: n, Cols: st.nc, RowPtr: make([]I, n+1)}
	for i, c := range st.cols {
		p.RowPtr[i+1] = p.RowPtr[i] + I(len(c))
	}
	p.ColIdx = make([]I, p.RowPtr[n])
	p.Vals = make([]float64, p.RowPtr[n])
	par.Run(len(p.Vals), n, &packKernel[I]{st: st, p: p})
	return p
}

// packKernel copies staged rows to their places in the CSR.
type packKernel[I sparse.Index] struct {
	st *stagedRows[I]
	p  *sparse.Matrix[float64, I]
}

func (k *packKernel[I]) Do(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(k.p.ColIdx[k.p.RowPtr[i]:], k.st.cols[i])
		copy(k.p.Vals[k.p.RowPtr[i]:], k.st.vals[i])
	}
}

// truncateKernel truncates staged rows in place.
type truncateKernel[I sparse.Index] struct {
	st        *stagedRows[I]
	maxPerRow int
}

func (k *truncateKernel[I]) Do(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		cols, vals := k.st.cols[i], k.st.vals[i]
		keep := truncateRow(cols, vals, k.maxPerRow)
		k.st.cols[i], k.st.vals[i] = cols[:keep], vals[:keep]
	}
}

// truncateRow is BoomerAMG's interpolation truncation of one row, in
// place: keep the maxPerRow largest magnitudes (<= 0: all), rescale them
// to the old row sum, and return how many were kept, in column order at
// the front of the row.
func truncateRow[I sparse.Index](cols []I, vals []float64, maxPerRow int) int {
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
type directInterpKernel[I sparse.Index] struct {
	a      *sparse.Matrix[float64, I]
	strong []bool
	types  []PointType
	cidx   []int
	fun    []int
	st     *stagedRows[I]
	done   []bool
}

func (k *directInterpKernel[I]) Do(_, lo, hi int) {
	a, strong, types := k.a, k.strong, k.types
	for i := lo; i < hi; i++ {
		if types[i] == CPoint {
			k.st.put(i, k.cidx[i], 1)
		} else if alpha, diag, ok := directAlpha(a, strong, k.fun, i, types, CPoint); ok {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				if j := a.ColIdx[q]; int(j) != i && types[j] == CPoint && strong[q] {
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
func directAlpha[I sparse.Index, T comparable](a *sparse.Matrix[float64, I], strong []bool, fun []int, i int, set []T, in T) (alpha, diag float64, ok bool) {
	var rowSum, inSum float64
	for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
		j := a.ColIdx[q]
		v := a.Vals[q]
		if int(j) == i {
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
type classicalInterpKernel[I sparse.Index] struct {
	a      *sparse.Matrix[float64, I]
	strong []bool
	types  []PointType
	cidx   []int
	st     *stagedRows[I]
}

func (k *classicalInterpKernel[I]) Do(_, lo, hi int) {
	a, strong, types, cidx, st := k.a, k.strong, k.types, k.cidx, k.st

	// Per-worker workspace mapping coarse column -> accumulator slot for
	// the current row.
	slot := make([]int, a.Rows)
	for i := range slot {
		slot[i] = -1
	}
	var cols []I
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
			case int(j) == i:
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
			if int(k) == i || !strong[q] || types[k] != FPoint {
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

// multipassInterp builds Stüben multipass interpolation, untruncated, and
// returns how many composed entries it staged. Pass 1 (directInterpKernel,
// sharded) gives direct interpolation to rows with strong C neighbours.
// Pass p ≥ 2 interpolates each remaining row i through its strong
// neighbours k that were done before the pass began:
//
//	p_i = Σ_k -α_i a_ik / a_ii · p_k,  α_i = Σ_{j≠i} a_ij / Σ_k a_ik
//
// with the k in matrix-row order and each untruncated p_k accumulated in
// its stored column order. α_i and the composition both read done as the
// pass found it, so a row finished in pass p is read from pass p+1 on, and
// P depends neither on the row order nor on the worker count. The passes
// run over a worklist of the remaining rows and stop at the first that
// finishes none; the rows still left end up empty. A pass could shard, but
// sharded at two workers it measured within 3 % of this serial loop.
func multipassInterp[I sparse.Index](a *sparse.Matrix[float64, I], strong []bool, types []PointType, cidx, fun []int, st *stagedRows[I]) int {
	n := a.Rows
	done := make([]bool, n)
	par.Run(a.NNZ(), n, &directInterpKernel[I]{a: a, strong: strong, types: types, cidx: cidx, fun: fun, st: st, done: done})
	var rest []int
	for i := range done {
		if !done[i] {
			rest = append(rest, i)
		}
	}
	acc := make([]float64, st.nc) // zero outside the row being summed
	seen := make([]uint64, (st.nc+63)/64)
	// One arena holds the composed rows, about two entries each. An append
	// that grows it leaves the earlier windows in the old array, where
	// they stay valid.
	cols, vals := make([]I, 0, 2*len(rest)), make([]float64, 0, 2*len(rest))
	staged := 0
	for len(rest) > 0 {
		for _, i := range rest {
			alpha, diag, ok := directAlpha(a, strong, fun, i, done, true)
			if !ok {
				continue
			}
			// Words lo..hi of seen cover the touched columns: staged rows
			// are in ascending column order, so each spans first to last.
			lo, hi := len(seen), -1
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				k := a.ColIdx[q]
				if int(k) == i || !strong[q] || !done[k] {
					continue
				}
				wk := -alpha * a.Vals[q] / diag
				kc := st.cols[k]
				kv := st.vals[k][:len(kc)]
				lo, hi = min(lo, int(kc[0]>>6)), max(hi, int(kc[len(kc)-1]>>6))
				for z, c := range kc {
					seen[c>>6] |= 1 << (c & 63)
					acc[c] += wk * kv[z]
				}
			}
			start := len(cols)
			for w := lo; w <= hi; w++ {
				for word := seen[w]; word != 0; word &= word - 1 {
					c := w<<6 | bits.TrailingZeros64(word)
					cols = append(cols, I(c))
					vals = append(vals, acc[c])
					acc[c] = 0
				}
				seen[w] = 0
			}
			st.cols[i], st.vals[i] = cols[start:len(cols):len(cols)], vals[start:len(vals):len(vals)]
		}
		left := rest[:0]
		for _, i := range rest {
			if c := len(st.cols[i]); c > 0 {
				done[i] = true
				staged += c
			} else {
				left = append(left, i)
			}
		}
		if len(left) == len(rest) {
			break
		}
		rest = left
	}
	return staged
}
