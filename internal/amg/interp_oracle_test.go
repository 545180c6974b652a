package amg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/sparse"
)

// This file keeps the map- and per-row-slice-based interpolation code that
// the array-based interp.go replaced, as the reference oracle: the new code
// changed the data structures and must reproduce every sum bit for bit.
// Nothing here is tuned; it is the old code made serial.

// refStrongSet is the old membership predicate: one Go map per matrix row.
func refStrongSet(s *Strength) func(i, j int) bool {
	sets := make([]map[int]struct{}, s.N)
	for i, row := range s.Rows {
		if len(row) == 0 {
			continue
		}
		m := make(map[int]struct{}, len(row))
		for _, j := range row {
			m[j] = struct{}{}
		}
		sets[i] = m
	}
	return func(i, j int) bool {
		m := sets[i]
		if m == nil {
			return false
		}
		_, ok := m[j]
		return ok
	}
}

func refSortInts(v []int) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

func refRowsToCSR(n, nc int, rowCols [][]int, rowVals [][]float64) *sparse.CSR {
	p := &sparse.CSR{Rows: n, Cols: nc, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] = p.RowPtr[i] + len(rowCols[i])
	}
	p.ColIdx = make([]int, 0, p.RowPtr[n])
	p.Vals = make([]float64, 0, p.RowPtr[n])
	for i := 0; i < n; i++ {
		p.ColIdx = append(p.ColIdx, rowCols[i]...)
		p.Vals = append(p.Vals, rowVals[i]...)
	}
	return p
}

// refDirectRows is direct interpolation for the rows not yet done (the
// whole of direct interpolation, and pass 1 of multipass).
func refDirectRows(a *sparse.CSR, isStrong func(i, j int) bool, types []PointType, cidx, fun []int,
	rowCols [][]int, rowVals [][]float64, done []bool) {
	sameFun := func(i, j int) bool { return fun == nil || fun[i] == fun[j] }
	for i := 0; i < a.Rows; i++ {
		if types[i] == CPoint {
			rowCols[i] = []int{cidx[i]}
			rowVals[i] = []float64{1}
			done[i] = true
			continue
		}
		var diag, rowSum, cSum float64
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			v := a.Vals[q]
			if j == i {
				diag = v
				continue
			}
			if !sameFun(i, j) {
				continue
			}
			rowSum += v
			if types[j] == CPoint && isStrong(i, j) {
				cSum += v
			}
		}
		if diag == 0 || cSum == 0 {
			continue
		}
		alpha := rowSum / cSum
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			if j == i || types[j] != CPoint || !isStrong(i, j) {
				continue
			}
			rowCols[i] = append(rowCols[i], cidx[j])
			rowVals[i] = append(rowVals[i], -alpha*a.Vals[q]/diag)
		}
		done[i] = len(rowCols[i]) > 0
	}
}

func refDirectInterp(a *sparse.CSR, s *Strength, types []PointType, fun []int) *sparse.CSR {
	cidx, nc := coarseIndex(types)
	rowCols := make([][]int, a.Rows)
	rowVals := make([][]float64, a.Rows)
	refDirectRows(a, refStrongSet(s), types, cidx, fun, rowCols, rowVals, make([]bool, a.Rows))
	return refRowsToCSR(a.Rows, nc, rowCols, rowVals)
}

func refClassicalInterp(a *sparse.CSR, s *Strength, types []PointType) *sparse.CSR {
	cidx, nc := coarseIndex(types)
	isStrong := refStrongSet(s)
	rowCols := make([][]int, a.Rows)
	rowVals := make([][]float64, a.Rows)
	slot := make([]int, a.Rows)
	for i := range slot {
		slot[i] = -1
	}
	var cols []int
	var wts []float64
	for i := 0; i < a.Rows; i++ {
		if types[i] == CPoint {
			rowCols[i] = []int{cidx[i]}
			rowVals[i] = []float64{1}
			continue
		}
		cols = cols[:0]
		wts = wts[:0]
		diag := 0.0
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			v := a.Vals[q]
			switch {
			case j == i:
				diag += v
			case isStrong(i, j) && types[j] == CPoint:
				slot[j] = len(cols)
				cols = append(cols, j)
				wts = append(wts, v)
			case !isStrong(i, j):
				diag += v
			}
		}
		diagSign := 1.0
		if diag < 0 {
			diagSign = -1
		}
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			k := a.ColIdx[q]
			if k == i || !isStrong(i, k) || types[k] != FPoint {
				continue
			}
			aik := a.Vals[q]
			den := 0.0
			for r := a.RowPtr[k]; r < a.RowPtr[k+1]; r++ {
				m := a.ColIdx[r]
				if m == k || slot[m] < 0 {
					continue
				}
				if a.Vals[r]*diagSign < 0 {
					den += a.Vals[r]
				}
			}
			if den == 0 {
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
			inv := -1 / diag
			for z, j := range cols {
				w := wts[z] * inv
				if w != 0 {
					rowCols[i] = append(rowCols[i], cidx[j])
					rowVals[i] = append(rowVals[i], w)
				}
			}
		}
		for _, j := range cols {
			slot[j] = -1
		}
	}
	return refRowsToCSR(a.Rows, nc, rowCols, rowVals)
}

// refMultipassInterp is the old multipass interpolation: the later passes
// accumulate each row in one shared map and insertion-sort its keys. Each
// pass reads a copy of done taken when it begins, so a row finished in a
// pass is read from the next pass on. It also reports how many passes
// (pass 1 included) finished at least one row.
func refMultipassInterp(a *sparse.CSR, s *Strength, types []PointType, fun []int) (*sparse.CSR, int) {
	cidx, nc := coarseIndex(types)
	isStrong := refStrongSet(s)
	sameFun := func(i, j int) bool { return fun == nil || fun[i] == fun[j] }
	n := a.Rows
	rowCols := make([][]int, n)
	rowVals := make([][]float64, n)
	done := make([]bool, n)
	refDirectRows(a, isStrong, types, cidx, fun, rowCols, rowVals, done)
	passes := 1
	acc := map[int]float64{}
	for {
		progress := false
		before := slices.Clone(done)
		for i := 0; i < n; i++ {
			if before[i] {
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
				if !sameFun(i, j) {
					continue
				}
				rowSum += v
				if isStrong(i, j) && before[j] {
					dSum += v
				}
			}
			if diag == 0 || dSum == 0 {
				continue
			}
			alpha := rowSum / dSum
			clear(acc)
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				k := a.ColIdx[q]
				if k == i || !isStrong(i, k) || !before[k] {
					continue
				}
				wk := -alpha * a.Vals[q] / diag
				for z, c := range rowCols[k] {
					acc[c] += wk * rowVals[k][z]
				}
			}
			if len(acc) == 0 {
				continue
			}
			cs := make([]int, 0, len(acc))
			for c := range acc {
				cs = append(cs, c)
			}
			refSortInts(cs)
			vs := make([]float64, len(cs))
			for z, c := range cs {
				vs[z] = acc[c]
			}
			rowCols[i], rowVals[i] = cs, vs
			done[i] = true
			progress = true
		}
		if !progress {
			break
		}
		passes++
	}
	return refRowsToCSR(n, nc, rowCols, rowVals), passes
}

func refTruncateInterp(p *sparse.CSR, maxPerRow int) *sparse.CSR {
	out := &sparse.CSR{Rows: p.Rows, Cols: p.Cols, RowPtr: make([]int, p.Rows+1)}
	type ent struct {
		col int
		val float64
	}
	var row []ent
	for i := 0; i < p.Rows; i++ {
		row = row[:0]
		rowSum := 0.0
		for q := p.RowPtr[i]; q < p.RowPtr[i+1]; q++ {
			v := p.Vals[q]
			rowSum += v
			row = append(row, ent{p.ColIdx[q], v})
		}
		if len(row) == 0 {
			out.RowPtr[i+1] = len(out.Vals)
			continue
		}
		kept := row
		if maxPerRow > 0 && len(kept) > maxPerRow {
			for a := 0; a < maxPerRow; a++ {
				best := a
				for b := a + 1; b < len(kept); b++ {
					if math.Abs(kept[b].val) > math.Abs(kept[best].val) {
						best = b
					}
				}
				kept[a], kept[best] = kept[best], kept[a]
			}
			kept = kept[:maxPerRow]
			for a := 1; a < len(kept); a++ {
				e := kept[a]
				b := a - 1
				for b >= 0 && kept[b].col > e.col {
					kept[b+1] = kept[b]
					b--
				}
				kept[b+1] = e
			}
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
			out.ColIdx = append(out.ColIdx, e.col)
			out.Vals = append(out.Vals, e.val*scale)
		}
		out.RowPtr[i+1] = len(out.Vals)
	}
	return out
}

// refTranspose and refDistanceTwo are the old per-row-append graph builders.
func refTranspose(s *Strength) *Strength {
	t := &Strength{N: s.N, Rows: make([][]int, s.N)}
	for i, row := range s.Rows {
		for _, j := range row {
			t.Rows[j] = append(t.Rows[j], i)
		}
	}
	return t
}

func refDistanceTwo(s *Strength, keep []bool) *Strength {
	d2 := &Strength{N: s.N, Rows: make([][]int, s.N)}
	mark := make([]int, s.N)
	for i := range mark {
		mark[i] = -1
	}
	for u := 0; u < s.N; u++ {
		if !keep[u] {
			continue
		}
		var nbrs []int
		add := func(v int) {
			if v != u && keep[v] && mark[v] != u {
				mark[v] = u
				nbrs = append(nbrs, v)
			}
		}
		for _, w := range s.Rows[u] {
			add(w)
			for _, v := range s.Rows[w] {
				add(v)
			}
		}
		refSortInts(nbrs)
		d2.Rows[u] = nbrs
	}
	return d2
}

func strengthEq(t *testing.T, name string, got, want *Strength) {
	t.Helper()
	if got.N != want.N || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: size %d/%d, want %d/%d", name, got.N, len(got.Rows), want.N, len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", name, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for z := range want.Rows[i] {
			if got.Rows[i][z] != want.Rows[i][z] {
				t.Fatalf("%s: row %d entry %d = %d, want %d", name, i, z, got.Rows[i][z], want.Rows[i][z])
			}
		}
	}
}

type oracleCase struct {
	name string
	a    *sparse.CSR
	funs int // NumFunctions
	// multiC, when set, lists the only C points of the splitting that
	// multipass interpolates (instead of CoarsenAggressive's), and
	// minPasses is how many passes that splitting must need.
	multiC    []int
	minPasses int
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	lap, err := fem.AssembleLaplace(fem.BallMesh(10))
	if err != nil {
		t.Fatalf("assemble FEM Laplace: %v", err)
	}
	return []oracleCase{
		{name: "7pt-n20", a: grid.Laplacian7pt(20)},
		{name: "27pt-n12", a: grid.Laplacian27pt(12)},
		{name: "femlap", a: lap.A},
		{name: "elasticity", a: elasticityMatrix(t), funs: 3},
		// A chain whose one C point sits in the middle: each pass finishes
		// the two rows next to those done before it, so the rows on both
		// sides compose through the pass before theirs, four passes in all.
		{name: "chain", a: lap1d(9), multiC: []int{4}, minPasses: 4},
	}
}

func funMap(n, funs int) []int {
	if funs <= 1 {
		return nil
	}
	fun := make([]int, n)
	for i := range fun {
		fun[i] = i % funs
	}
	return fun
}

// TestInterpMatchesMapOracle demands bitwise equality between the
// array-based interpolation and the old map-based code, for direct,
// classical and multipass (untruncated and truncated), at 1, 2 and 8
// workers. The chain case needs four passes, each reading only the rows
// the passes before it finished.
func TestInterpMatchesMapOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fun := funMap(tc.a.Rows, tc.funs)
			s := StrengthGraphFunc(tc.a, 0.25, fun)
			types := Coarsen(s, HMIS, 7)
			typesAgg := CoarsenAggressive(s, HMIS, 7)
			if tc.multiC != nil {
				typesAgg = make([]PointType, s.N)
				for _, c := range tc.multiC {
					typesAgg[c] = CPoint
				}
			}

			strengthEq(t, "transpose", s.Transpose(), refTranspose(s))
			keep := make([]bool, s.N)
			for i, ty := range types {
				keep[i] = ty == CPoint
			}
			strengthEq(t, "distanceTwo", s.distanceTwo(keep), refDistanceTwo(s, keep))

			wantDirect := refDirectInterp(tc.a, s, types, fun)
			wantClassical := refClassicalInterp(tc.a, s, types)
			wantMulti, passes := refMultipassInterp(tc.a, s, typesAgg, fun)
			if passes < tc.minPasses {
				t.Fatalf("multipass finished in %d passes; the case must need at least %d", passes, tc.minPasses)
			}
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					withSetupWorkers(t, workers)
					direct := DirectInterpolation(tc.a, s, types, fun)
					classical := BuildInterpolationFunc(tc.a, s, types, ClassicalModified, fun)
					multi := BuildInterpolationFunc(tc.a, s, typesAgg, Multipass, fun)
					csrEq(t, "direct", direct, wantDirect)
					csrEq(t, "classical-modified", classical, wantClassical)
					csrEq(t, "multipass", multi, wantMulti)
					for _, tr := range []int{4, 3, 2} {
						name := fmt.Sprintf("truncate(%d)", tr)
						csrEq(t, name+" classical", TruncateInterp(classical, tr), refTruncateInterp(wantClassical, tr))
						csrEq(t, name+" multipass", TruncateInterp(multi, tr), refTruncateInterp(wantMulti, tr))
					}
				})
			}
		})
	}
}

// refLevel is one level of refBuild's hierarchy, as float64 matrices.
type refLevel struct {
	A, P, PT *sparse.CSR
	Types    []PointType
}

// refBuild is the setup loop of BuildWithStats over the oracle
// interpolation: old interpolation, old truncation, everything else shared.
func refBuild(t *testing.T, a *sparse.CSR, opt Options) []refLevel {
	t.Helper()
	var levels []refLevel
	fun := funMap(a.Rows, opt.NumFunctions)
	cur := a
	for lvl := 0; ; lvl++ {
		if lvl == opt.MaxLevels-1 || cur.Rows <= opt.MinCoarse {
			return append(levels, refLevel{A: cur})
		}
		s := StrengthGraphFunc(cur, Theta, fun)
		aggressive := lvl < opt.AggressiveLevels
		var types []PointType
		if aggressive {
			types = CoarsenAggressive(s, coarsening, seed+int64(lvl))
		} else {
			types = Coarsen(s, coarsening, seed+int64(lvl))
		}
		nc := CountC(types)
		if nc == 0 || nc >= cur.Rows {
			return append(levels, refLevel{A: cur})
		}
		var p *sparse.CSR
		if aggressive {
			p, _ = refMultipassInterp(cur, s, types, fun)
		} else {
			p = refClassicalInterp(cur, s, types)
		}
		if opt.TruncMax > 0 {
			p = refTruncateInterp(p, opt.TruncMax)
		}
		pt := p.Transpose()
		levels = append(levels, refLevel{A: cur, P: p, PT: pt, Types: types})
		if fun != nil {
			coarseFun := make([]int, 0, nc)
			for i, ty := range types {
				if ty == CPoint {
					coarseFun = append(coarseFun, fun[i])
				}
			}
			fun = coarseFun
		}
		cur, _ = sparse.RAPWith(cur, p, pt)
	}
}

// oracleTruncations are the TruncMax settings the oracle tests run: the
// paper's, two tighter ones, and none.
var oracleTruncations = []int{4, 3, 2, 0}

// TestBuildMatchesMapOracle is the whole-hierarchy form of the oracle
// test: Build with the paper's options (and the unknown approach on
// elasticity), under every truncation setting, equals the old code on
// every level — operators, interpolants, transposes and splittings.
func TestBuildMatchesMapOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			opts := make([]Options, len(oracleTruncations))
			wants := make([][]refLevel, len(oracleTruncations))
			for z, tr := range oracleTruncations {
				opts[z] = DefaultOptions()
				opts[z].NumFunctions = tc.funs
				opts[z].TruncMax = tr
				wants[z] = refBuild(t, tc.a, opts[z])
			}
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					withSetupWorkers(t, workers)
					for z, opt := range opts {
						want := wants[z]
						h, err := Build(tc.a, opt)
						if err != nil {
							t.Fatal(err)
						}
						trunc := fmt.Sprintf("truncate(%d)", opt.TruncMax)
						if h.NumLevels() != len(want) {
							t.Fatalf("%s: levels %d, want %d", trunc, h.NumLevels(), len(want))
						}
						for k := range want {
							lv, lw := h.Levels[k], want[k]
							a, p, pt := levelCSR(lv)
							csrEq(t, fmt.Sprintf("%s A[%d]", trunc, k), a, lw.A)
							if (p == nil) != (lw.P == nil) {
								t.Fatalf("%s: level %d P nil mismatch", trunc, k)
							}
							if lw.P != nil {
								csrEq(t, fmt.Sprintf("%s P[%d]", trunc, k), p, lw.P)
								csrEq(t, fmt.Sprintf("%s PT[%d]", trunc, k), pt, lw.PT)
							}
							if len(lv.Types) != len(lw.Types) {
								t.Fatalf("%s: level %d Types length %d, want %d", trunc, k, len(lv.Types), len(lw.Types))
							}
							for i := range lw.Types {
								if lv.Types[i] != lw.Types[i] {
									t.Fatalf("%s: level %d C/F split differs at %d", trunc, k, i)
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestMultipassTruncationMatchesMapOracle checks multipass interpolation
// with its one truncation at the end against the old code's untruncated P
// truncated afterwards, under every truncation setting at 1, 2 and 8
// workers. In the chain case every later pass composes through the
// untruncated rows of the pass before it.
func TestMultipassTruncationMatchesMapOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fun := funMap(tc.a.Rows, tc.funs)
			s := StrengthGraphFunc(tc.a, 0.25, fun)
			types := CoarsenAggressive(s, HMIS, 7)
			if tc.multiC != nil {
				types = make([]PointType, s.N)
				for _, c := range tc.multiC {
					types[c] = CPoint
				}
			}
			untruncated, _ := refMultipassInterp(tc.a, s, types, fun)
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					withSetupWorkers(t, workers)
					for _, tr := range oracleTruncations {
						want := untruncated
						if tr > 0 {
							want = refTruncateInterp(untruncated, tr)
						}
						got, _ := interpolate(tc.a, s, types, Multipass, fun, tr)
						csrEq(t, fmt.Sprintf("truncate(%d)", tr), got, want)
					}
				})
			}
		})
	}
}
