package amg

import (
	"cmp"
	"math"
	"slices"

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
	// Direct interpolation uses only the C points in each row with the
	// row-sum-preserving scaling. Cheapest, used as a reference.
	Direct
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
	case Direct:
		return "direct"
	case Multipass:
		return "multipass"
	}
	return "unknown"
}

// coarseIndex numbers the C points consecutively; -1 for F points.
func coarseIndex(types []PointType) (idx []int, nc int) {
	idx = make([]int, len(types))
	for i, t := range types {
		if t == CPoint {
			idx[i] = nc
			nc++
		} else {
			idx[i] = -1
		}
	}
	return
}

// BuildInterpolation constructs the prolongation matrix P (n × nc) for the
// given splitting using the requested scheme. Rows of C points are identity
// rows. The matrix A and its strength graph s must correspond.
func BuildInterpolation(a *sparse.CSR, s *Strength, types []PointType, typ InterpType) *sparse.CSR {
	return BuildInterpolationFunc(a, s, types, typ, nil)
}

// BuildInterpolationFunc is BuildInterpolation with the unknown-approach
// function map: when fun is non-nil, row sums in the direct and multipass
// formulas are restricted to same-function couplings (cross-function
// entries behave as weak connections, matching StrengthGraphFunc).
func BuildInterpolationFunc(a *sparse.CSR, s *Strength, types []PointType, typ InterpType, fun []int) *sparse.CSR {
	return stageInterp(a, s, types, typ, fun).toCSR(0, 0)
}

// TruncateInterp limits each row of P to its maxPerRow largest-magnitude
// entries and drops entries below relTol times the row's largest magnitude,
// rescaling the kept entries so the row sum is preserved (BoomerAMG's
// interpolation truncation). maxPerRow <= 0 means unlimited.
func TruncateInterp(p *sparse.CSR, relTol float64, maxPerRow int) *sparse.CSR {
	st := &stagedRows{nc: p.Cols, cols: make([][]int, p.Rows), vals: make([][]float64, p.Rows)}
	for i := range st.cols {
		st.cols[i] = p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]]
		st.vals[i] = p.Vals[p.RowPtr[i]:p.RowPtr[i+1]]
	}
	return st.toCSR(relTol, maxPerRow)
}

// stageInterp builds the untruncated rows of P. Build packs them straight
// into the truncated CSR, so the untruncated P of an aggressive level (tens
// of entries per row, against the handful that truncation keeps) is never
// assembled.
func stageInterp(a *sparse.CSR, s *Strength, types []PointType, typ InterpType, fun []int) *stagedRows {
	cidx, nc := coarseIndex(types)
	// A row that interpolates from the strong C neighbours of matrix row i
	// alone has at most as many entries as that row (one, for a C point).
	rowCap := make([]int, a.Rows)
	for i := range rowCap {
		rowCap[i] = a.RowPtr[i+1] - a.RowPtr[i] + 1
	}
	st := newStagedRows(nc, rowCap)
	strong := strongMask(a, s)
	switch typ {
	case Direct:
		runRows(a.Rows, a.NNZ(), &directInterpKernel{a: a, strong: strong, types: types, cidx: cidx, fun: fun, st: st})
	case Multipass:
		multipassInterp(a, strong, types, cidx, fun, st)
	default:
		runRows(a.Rows, a.NNZ(), &classicalInterpKernel{a: a, strong: strong, types: types, cidx: cidx, st: st})
	}
	return st
}

// strongMask flags the strong connections on A's own pattern: mask[q] is
// true when entry q of row i has its column in s.Rows[i]. StrengthGraphFunc
// lists a row's strong columns in the order the matrix row has them, so
// one two-pointer walk per row finds them all.
func strongMask(a *sparse.CSR, s *Strength) []bool {
	mask := make([]bool, a.NNZ())
	for i, sr := range s.Rows {
		z := 0
		for q := a.RowPtr[i]; q < a.RowPtr[i+1] && z < len(sr); q++ {
			if a.ColIdx[q] == sr[z] {
				mask[q] = true
				z++
			}
		}
	}
	return mask
}

// stagedRows holds rows of P between their computation and the exactly
// sized CSR. Row i is the pair cols[i], vals[i]; the rows are windows into
// flat arenas that only grow at the end and never move, so staging a row
// allocates nothing and copies nothing.
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
// the row lengths, first truncating each row as TruncateInterp documents
// when relTol or maxPerRow asks for it. Rows are independent, so both
// sweeps shard over the kernel pool, and the result is bitwise-identical to
// serial for any worker count.
func (st *stagedRows) toCSR(relTol float64, maxPerRow int) *sparse.CSR {
	n := len(st.cols)
	if relTol > 0 || maxPerRow > 0 {
		// A truncated row is no longer than the row, nor than maxPerRow.
		rowCap := make([]int, n)
		entries := 0
		for i, c := range st.cols {
			entries += len(c)
			rowCap[i] = len(c)
			if maxPerRow > 0 && rowCap[i] > maxPerRow {
				rowCap[i] = maxPerRow
			}
		}
		out := newStagedRows(st.nc, rowCap)
		runRows(n, entries, &truncateKernel{in: st, out: out, relTol: relTol, maxPerRow: maxPerRow})
		st = out
	}
	p := &sparse.CSR{Rows: n, Cols: st.nc, RowPtr: make([]int, n+1)}
	for i, c := range st.cols {
		p.RowPtr[i+1] = p.RowPtr[i] + len(c)
	}
	p.ColIdx = make([]int, p.RowPtr[n])
	p.Vals = make([]float64, p.RowPtr[n])
	runRows(n, p.RowPtr[n], &packKernel{st: st, p: p})
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

// truncateKernel stages the truncation of each row of in as the same row
// of out.
type truncateKernel struct {
	in, out   *stagedRows
	relTol    float64
	maxPerRow int
}

type interpEntry struct {
	col int
	val float64
}

func (k *truncateKernel) Do(_, lo, hi int) {
	relTol, maxPerRow := k.relTol, k.maxPerRow
	var kept []interpEntry // per-worker scratch
	for i := lo; i < hi; i++ {
		cols, vals := k.in.cols[i], k.in.vals[i]
		rowSum := 0.0
		maxMag := 0.0
		for _, v := range vals {
			rowSum += v
			if m := math.Abs(v); m > maxMag {
				maxMag = m
			}
		}
		// Drop small entries.
		kept = kept[:0]
		for z, v := range vals {
			if math.Abs(v) >= relTol*maxMag {
				kept = append(kept, interpEntry{cols[z], v})
			}
		}
		// Keep only the largest maxPerRow by magnitude.
		if maxPerRow > 0 && len(kept) > maxPerRow {
			// Selection of the top maxPerRow; ties go to the entry that
			// comes first in the order the earlier swaps left.
			for a := 0; a < maxPerRow; a++ {
				best, bestMag := a, math.Abs(kept[a].val)
				for b := a + 1; b < len(kept); b++ {
					if m := math.Abs(kept[b].val); m > bestMag {
						best, bestMag = b, m
					}
				}
				kept[a], kept[best] = kept[best], kept[a]
			}
			kept = kept[:maxPerRow]
			// Restore column order.
			slices.SortFunc(kept, func(x, y interpEntry) int { return cmp.Compare(x.col, y.col) })
		}
		keptSum := 0.0
		for _, e := range kept {
			keptSum += e.val
		}
		scale := 1.0
		if keptSum != 0 && rowSum != 0 {
			scale = rowSum / keptSum
		}
		for _, e := range kept {
			k.out.put(i, e.col, e.val*scale)
		}
	}
}

// directInterpKernel builds direct interpolation:
//
//	w_ij = -α_i a_ij / a_ii,  α_i = Σ_{k≠i} a_ik / Σ_{j∈C_i} a_ij
//
// which preserves row sums (interpolates constants exactly for zero-row-sum
// operators). Rows with no strong C neighbour or a degenerate denominator
// get an empty P row (no coarse correction for that point). It is also
// pass 1 of multipass interpolation, which passes done to learn which rows
// now have a stencil.
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
	done   []bool // nil outside multipass
}

func (k *directInterpKernel) Do(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		if k.types[i] == CPoint {
			k.st.put(i, k.cidx[i], 1)
		} else {
			k.fRow(i)
		}
		if k.done != nil {
			k.done[i] = len(k.st.cols[i]) > 0
		}
	}
}

// fRow stages the direct-interpolation row of F point i.
func (k *directInterpKernel) fRow(i int) {
	a, strong, types, fun := k.a, k.strong, k.types, k.fun
	var diag, rowSum, cSum float64
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
		if types[j] == CPoint && strong[q] {
			cSum += v
		}
	}
	if diag == 0 || cSum == 0 {
		return
	}
	alpha := rowSum / cSum
	for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
		j := a.ColIdx[q]
		if j == i || types[j] != CPoint || !strong[q] {
			continue
		}
		k.st.put(i, k.cidx[j], -alpha*a.Vals[q]/diag)
	}
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

// multipassInterp builds Stüben multipass interpolation. C rows are
// identity. Pass 1 gives direct interpolation to rows with strong C
// neighbours. Later passes interpolate remaining rows through
// already-interpolated strong neighbours, composing their P rows. Rows that
// never acquire an interpolated strong neighbour end up empty.
//
// Pass 1 shards over the kernel pool. The later passes stay serial: a row
// composes through every strong neighbour that is done when the sweep
// reaches it, including rows finished earlier in the same sweep, and that
// ordering is part of what P is. Each row is summed in a dense accumulator
// over the coarse columns, in the neighbour order of the matrix row, with a
// stamped marker telling which columns the row has touched; the touched
// columns are then sorted and the row appended to the arena.
func multipassInterp(a *sparse.CSR, strong []bool, types []PointType, cidx, fun []int, st *stagedRows) {
	n := a.Rows
	done := make([]bool, n)
	runRows(n, a.NNZ(), &directInterpKernel{a: a, strong: strong, types: types, cidx: cidx, fun: fun, st: st, done: done})

	acc := make([]float64, st.nc)
	mark := make([]int, st.nc) // mark[c] == stamp: the current row has touched c
	stamp := 0
	var touched []int
	// The composed rows go to chunks the size of pass 1's arena, opened as
	// the rows come: they are many times longer than the matrix rows, and
	// how long is known only once each has been summed.
	chunk := a.NNZ() + n
	var chunkCols []int
	var chunkVals []float64
	for progress := true; progress; {
		progress = false
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			var diag, rowSum, dSum float64
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
				if strong[q] && done[j] {
					dSum += v
				}
			}
			if diag == 0 || dSum == 0 {
				continue
			}
			alpha := rowSum / dSum
			stamp++
			touched = touched[:0]
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				k := a.ColIdx[q]
				if k == i || !strong[q] || !done[k] {
					continue
				}
				wk := -alpha * a.Vals[q] / diag
				kc := st.cols[k]
				kv := st.vals[k][:len(kc)]
				for z, c := range kc {
					if mark[c] != stamp {
						mark[c] = stamp
						acc[c] = 0
						touched = append(touched, c)
					}
					acc[c] += wk * kv[z]
				}
			}
			if len(touched) == 0 {
				continue
			}
			slices.Sort(touched)
			if cap(chunkCols)-len(chunkCols) < len(touched) {
				size := max(chunk, len(touched))
				chunkCols, chunkVals = make([]int, 0, size), make([]float64, 0, size)
			}
			lo := len(chunkCols)
			chunkCols = append(chunkCols, touched...)
			for _, c := range touched {
				chunkVals = append(chunkVals, acc[c])
			}
			hi := len(chunkCols)
			st.cols[i], st.vals[i] = chunkCols[lo:hi:hi], chunkVals[lo:hi:hi]
			done[i] = true
			progress = true
		}
	}
}
