package op

import (
	"math/bits"
	"slices"
	"unsafe"

	"asyncmg/internal/sparse"
)

// OrderedInterp is a CSR interpolant stored in row-length order, the
// store of Multadd's smoothed interpolants P̄ on algebraic levels. P̄'s
// rows hold 1 to about 10 entries in no fixed pattern, so a CSR row loop
// mispredicts its exit on most rows; here the rows are grouped by length,
// and each group runs its inner loop with one trip count. Every row still
// sums its entries in ascending column order from 0 and stores or adds
// once, so each fine row is bitwise what sparse.Matrix's ApplyRange and
// ApplyAddRange give. Pᵀ is a plain CSR matrix whose rows hold their fine
// rows in ascending order, bitwise sparse.Matrix.Transpose's.
//
// Apply* Range methods take a share [lo, hi) of the fine rows [0, len(Row)),
// not a row range (see Interp).
type OrderedInterp[V sparse.Value, I sparse.Index] struct {
	// Row[r] is the fine row of stored row r. Stored rows run through the
	// classes, fine rows ascending within each.
	Row []I
	// Class is the length-class table, lengths ascending.
	Class []LenClass[I]
	// ColIdx and Vals hold the stored rows' entries in stored order,
	// columns ascending within each row.
	ColIdx []I
	Vals   []V
	// PT is Pᵀ.
	PT *sparse.Matrix[V, I]
}

// LenClass is one length class of an OrderedInterp: the stored rows from
// the previous class's End (0 for the first class) up to End hold Len
// entries each, the first of them at Off.
type LenClass[I sparse.Index] struct{ End, Len, Off I }

// NewOrderedInterp stores a rows×cols interpolant whose row i holds
// rowPtr[i+1] − rowPtr[i] entries (rows = len(rowPtr) − 1) in row-length
// order, and builds its transpose. fill(i, cols, vals) writes row i,
// columns ascending, into its storage; it is called once per row, rows
// ascending. rowPtr is read, not kept.
func NewOrderedInterp[V sparse.Value, I sparse.Index](cols int, rowPtr []I, fill func(i int, cols []I, vals []V)) *OrderedInterp[V, I] {
	rows := len(rowPtr) - 1
	longest := 0
	for i := 0; i < rows; i++ {
		longest = max(longest, int(rowPtr[i+1]-rowPtr[i]))
	}
	count := make([]int, longest+1)
	for i := 0; i < rows; i++ {
		count[rowPtr[i+1]-rowPtr[i]]++
	}
	nnz := int(rowPtr[rows])
	t := &OrderedInterp[V, I]{Row: make([]I, rows), ColIdx: make([]I, nnz), Vals: make([]V, nnz)}
	end, off := 0, 0
	for n, c := range count {
		if c > 0 {
			end += c
			t.Class = append(t.Class, LenClass[I]{End: I(end), Len: I(n), Off: I(off)})
			off += c * n
		}
	}
	// next[n] and at[n] are the stored row and the entry offset the next
	// row of length n goes to; each pass in fine-row order resets them.
	next, at := count, make([]int, longest+1)
	reset := func() {
		for c, cl := range t.Class {
			next[cl.Len], at[cl.Len] = t.first(c), int(cl.Off)
		}
	}
	reset()
	for i := 0; i < rows; i++ {
		n := int(rowPtr[i+1] - rowPtr[i])
		r, p := next[n], at[n]
		next[n]++
		at[n] += n
		t.Row[r] = I(i)
		fill(i, t.ColIdx[p:p+n:p+n], t.Vals[p:p+n:p+n])
	}

	// Pᵀ by a counting sort over the columns, scattering the rows in fine
	// order so each Pᵀ row holds its fine rows ascending.
	pt := &sparse.Matrix[V, I]{Rows: cols, Cols: rows, RowPtr: make([]I, cols+1), ColIdx: make([]I, nnz), Vals: make([]V, nnz)}
	for _, j := range t.ColIdx {
		pt.RowPtr[j+1]++
	}
	for j := 0; j < cols; j++ {
		pt.RowPtr[j+1] += pt.RowPtr[j]
	}
	dst := slices.Clone(pt.RowPtr[:cols])
	reset()
	for i := 0; i < rows; i++ {
		n := int(rowPtr[i+1] - rowPtr[i])
		p := at[n]
		at[n] += n
		for q := p; q < p+n; q++ {
			j := t.ColIdx[q]
			d := dst[j]
			dst[j]++
			pt.ColIdx[d], pt.Vals[d] = I(i), t.Vals[q]
		}
	}
	t.PT = pt
	return t
}

// first returns the first stored row of class c.
func (t *OrderedInterp[V, I]) first(c int) int {
	if c == 0 {
		return 0
	}
	return int(t.Class[c-1].End)
}

func (t *OrderedInterp[V, I]) NNZEquivalent() int { return len(t.Vals) }

// Bytes counts the row index (4 bytes a row for uint32, the size of a
// CSR row pointer), the class table, the entries and Pᵀ.
func (t *OrderedInterp[V, I]) Bytes() int {
	var v V
	var i I
	return int(unsafe.Sizeof(i))*(len(t.Row)+3*len(t.Class)+len(t.ColIdx)) + int(unsafe.Sizeof(v))*len(t.Vals) + t.PT.Bytes()
}

func (t *OrderedInterp[V, I]) Apply(fine, coarse []float64) {
	sparse.RunApply(len(t.Vals), len(t.Row), t, fine, coarse)
}
func (t *OrderedInterp[V, I]) ApplyAdd(fine, coarse []float64) {
	sparse.RunApplyAdd(len(t.Vals), len(t.Row), t, fine, coarse)
}
func (t *OrderedInterp[V, I]) ApplyT(coarse, fine []float64) { t.PT.MatVecPar(coarse, fine) }

// ApplyRange computes fine = P coarse on the fine rows of share [lo, hi).
func (t *OrderedInterp[V, I]) ApplyRange(fine, coarse []float64, lo, hi int) {
	t.prolong(fine, coarse, lo, hi, false)
}

// ApplyAddRange computes fine += P coarse on the fine rows of share
// [lo, hi).
func (t *OrderedInterp[V, I]) ApplyAddRange(fine, coarse []float64, lo, hi int) {
	t.prolong(fine, coarse, lo, hi, true)
}

// ApplyTRange computes coarse[lo:hi] = (Pᵀ fine)[lo:hi].
func (t *OrderedInterp[V, I]) ApplyTRange(coarse, fine []float64, lo, hi int) {
	t.PT.ApplyRange(coarse, fine, lo, hi)
}

// prolong runs the stored rows of share [lo, hi) class by class, each
// class's inner loop with its one trip count.
func (t *OrderedInterp[V, I]) prolong(fine, coarse []float64, lo, hi int, add bool) {
	c, r := t.locate(lo)
	_, end := t.locate(hi)
	row, colIdx, vals := t.Row, t.ColIdx, t.Vals
	for ; r < end; c++ {
		cl := t.Class[c]
		n, stop := int(cl.Len), min(int(cl.End), end)
		p := int(cl.Off) + (r-t.first(c))*n
		if add {
			for ; r < stop; r, p = r+1, p+n {
				fine[row[r]] += rowSum(colIdx[p:p+n], vals[p:p+n], coarse)
			}
		} else {
			for ; r < stop; r, p = r+1, p+n {
				fine[row[r]] = rowSum(colIdx[p:p+n], vals[p:p+n], coarse)
			}
		}
	}
}

// rowSum is one row's Σ vals[q]·x[cols[q]], summed in stored order from 0.
func rowSum[V sparse.Value, I sparse.Index](cols []I, vals []V, x []float64) float64 {
	s := 0.0
	for q, j := range cols {
		s += float64(vals[q]) * x[j]
	}
	return s
}

// locate maps x of [0, len(Row)] to the first stored row r, and its
// class c, whose weight reaches x/len(Row) of the total: a row weighs
// one per entry and one for its store, and its weight is that of the rows
// stored before it. The map is monotone, takes 0 to 0 and len(Row) to
// len(Row), so disjoint shares cover every fine row exactly once, each
// with about its fraction of the work.
func (t *OrderedInterp[V, I]) locate(x int) (c, r int) {
	rows := len(t.Row)
	if x >= rows {
		return len(t.Class), rows
	}
	hi, lo := bits.Mul64(uint64(x), uint64(rows+len(t.Vals)))
	q, _ := bits.Div64(hi, lo, uint64(rows))
	w := int(q)
	// The class weight first(c) + Off is the weight of c's first row.
	for c+1 < len(t.Class) && int(t.Class[c].End)+int(t.Class[c+1].Off) <= w {
		c++
	}
	cl := t.Class[c]
	f := t.first(c)
	step := int(cl.Len) + 1
	r = f + (w-f-int(cl.Off)+step-1)/step
	if r == int(cl.End) {
		c++
	}
	return c, r
}
