package op

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"asyncmg/internal/par"
	"asyncmg/internal/partition"
	"asyncmg/internal/sparse"
)

// orderedFrom stores m in row-length order.
func orderedFrom[V sparse.Value, I sparse.Index](m *sparse.Matrix[V, I]) *OrderedInterp[V, I] {
	return NewOrderedInterp(m.Cols, m.RowPtr, func(i int, cols []I, vals []V) {
		copy(cols, m.ColIdx[m.RowPtr[i]:])
		copy(vals, m.Vals[m.RowPtr[i]:])
	})
}

// matrixWithRowLens is a rows×cols matrix whose row i holds lens(i)
// entries in random distinct columns, values in [-1, 1].
func matrixWithRowLens(rng *rand.Rand, rows, cols int, lens func(i int) int) *sparse.Matrix[float64, uint32] {
	m := &sparse.Matrix[float64, uint32]{Rows: rows, Cols: cols, RowPtr: make([]uint32, rows+1)}
	for i := 0; i < rows; i++ {
		n := lens(i)
		row := rng.Perm(cols)[:n]
		slices.Sort(row)
		for _, j := range row {
			m.ColIdx = append(m.ColIdx, uint32(j))
			m.Vals = append(m.Vals, 2*rng.Float64()-1)
		}
		m.RowPtr[i+1] = uint32(len(m.Vals))
	}
	return m
}

// shareSplits are the shares a kernel's fine rows are handed out in: the
// kernel pool's (par.ShardRange) and a goroutine team's
// (partition.SplitRows), at 1, 2, 3 and 8 workers.
func shareSplits(rows int) map[string][][2]int {
	out := map[string][][2]int{}
	for _, w := range []int{1, 2, 3, 8} {
		var pool, team [][2]int
		for k := 0; k < w; k++ {
			lo, hi := par.ShardRange(rows, w, k)
			pool = append(pool, [2]int{lo, hi})
		}
		for _, r := range partition.SplitRows(rows, w) {
			team = append(team, [2]int{r.Lo, r.Hi})
		}
		out[fmt.Sprintf("pool-%d", w)], out[fmt.Sprintf("team-%d", w)] = pool, team
	}
	return out
}

// checkShareCover fails t unless the stored rows of shares, which cover
// [0, len(Row)) in order, are consecutive, disjoint and cover every
// stored row, hence every fine row, exactly once.
func checkShareCover[V sparse.Value, I sparse.Index](t *testing.T, o *OrderedInterp[V, I], name string, shares [][2]int) {
	t.Helper()
	next := 0
	for _, s := range shares {
		_, r0 := o.locate(s[0])
		_, r1 := o.locate(s[1])
		if r0 != next || r1 < r0 {
			t.Errorf("%s: share [%d, %d) runs stored rows [%d, %d), the previous share ended at %d", name, s[0], s[1], r0, r1, next)
		}
		next = r1
	}
	if next != len(o.Row) {
		t.Errorf("%s: shares end at stored row %d of %d", name, next, len(o.Row))
	}
	seen := make([]bool, len(o.Row))
	for _, i := range o.Row {
		if seen[i] {
			t.Fatalf("%s: fine row %d stored twice", name, i)
		}
		seen[i] = true
	}
}

// checkOrderedKernels holds o, stored from m, to sparse.Matrix's kernels
// bit for bit: ApplyRange and ApplyAddRange over every share split (each
// fine row written by exactly one share) and through the sharded Apply
// and ApplyAdd, ApplyTRange and ApplyT to m.Transpose()'s ApplyRange, and
// Pᵀ to m.Transpose() itself.
func checkOrderedKernels[V sparse.Value, I sparse.Index](t *testing.T, m *sparse.Matrix[V, I], rng *rand.Rand) {
	t.Helper()
	o := orderedFrom(m)
	mt := m.Transpose()
	if !sameBits(o.PT, mt) {
		t.Fatal("Pᵀ differs from Transpose")
	}
	x, b := randVec(rng, m.Cols), randVec(rng, m.Rows)
	xt := randVec(rng, m.Rows)
	want := make([]float64, m.Rows)
	m.ApplyRange(want, x, 0, m.Rows)
	wantAdd := slices.Clone(b)
	m.ApplyAddRange(wantAdd, x, 0, m.Rows)
	wantT := make([]float64, m.Cols)
	mt.ApplyRange(wantT, xt, 0, m.Cols)
	nan := func(n int) []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = math.NaN()
		}
		return y
	}
	for name, shares := range shareSplits(m.Rows) {
		checkShareCover(t, o, name, shares)
		y, yAdd := nan(m.Rows), slices.Clone(b)
		for _, s := range shares {
			o.ApplyRange(y, x, s[0], s[1])
			o.ApplyAddRange(yAdd, x, s[0], s[1])
		}
		if !sameVecBits(y, want) || !sameVecBits(yAdd, wantAdd) {
			t.Errorf("%s: ApplyRange/ApplyAddRange over the shares differ from sparse.Matrix's", name)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers)
		y, yAdd, yt := nan(m.Rows), slices.Clone(b), nan(m.Cols)
		o.Apply(y, x)
		o.ApplyAdd(yAdd, x)
		o.ApplyT(yt, xt)
		if !sameVecBits(y, want) || !sameVecBits(yAdd, wantAdd) || !sameVecBits(yt, wantT) {
			t.Errorf("%d workers: Apply/ApplyAdd/ApplyT differ from sparse.Matrix's", workers)
		}
		yt = nan(m.Cols)
		o.ApplyTRange(yt, xt, 0, m.Cols/3)
		o.ApplyTRange(yt, xt, m.Cols/3, m.Cols)
		if !sameVecBits(yt, wantT) {
			t.Errorf("%d workers: ApplyTRange differs from Transpose's ApplyRange", workers)
		}
	}
}

func sameVecBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameBits[V sparse.Value, I sparse.Index](a, b *sparse.Matrix[V, I]) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y V) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) })
}

// TestOrderedInterpKernelTable: the row-length-ordered store computes
// what sparse.Matrix computes on the same rows, bit for bit, in float64
// and float32 with uint32 indices, on empty rows, one row, rows all of one
// length, rows longer than 255 entries, an irregular P̄-like pattern and
// the geometric P, with every share split of 1, 2, 3 and 8 workers
// writing each fine row exactly once. The union-pattern P̄ the engine
// builds is checked by engine.TestSmoothedInterpUnionPattern.
func TestOrderedInterpKernelTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	geomP := sparse.Convert[float64, uint32](GeomInterpCSR(9))
	for _, tc := range []struct {
		name string
		m    *sparse.Matrix[float64, uint32]
	}{
		{"no-rows", matrixWithRowLens(rng, 0, 5, nil)},
		{"all-empty", matrixWithRowLens(rng, 17, 5, func(int) int { return 0 })},
		{"some-empty", matrixWithRowLens(rng, 40, 12, func(i int) int { return []int{0, 3, 0, 1, 7}[i%5] })},
		{"one-row", matrixWithRowLens(rng, 1, 9, func(int) int { return 4 })},
		{"one-length", matrixWithRowLens(rng, 64, 30, func(int) int { return 5 })},
		{"long-rows", matrixWithRowLens(rng, 23, 600, func(i int) int { return 250 + 3*i })},
		{"irregular", matrixWithRowLens(rng, 3000, 400, func(int) int { return 1 + rng.Intn(10) })},
		{"geom-P", geomP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { checkOrderedKernels(t, tc.m, rng) })
			t.Run("f32", func(t *testing.T) { checkOrderedKernels(t, sparse.Convert[float32, uint32](tc.m), rng) })
		})
	}
}
