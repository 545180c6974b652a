// Package amg implements the algebraic-multigrid setup phase used by every
// solver in this repository — the role BoomerAMG plays in the paper. It
// provides classical strength-of-connection, PMIS and HMIS coarsening,
// aggressive (distance-two) coarsening levels, direct/classical-modified and
// multipass interpolation, interpolation truncation, and the Galerkin
// hierarchy builder.
package amg

import (
	"math"
	"slices"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// Strength is the strong-connection graph of a matrix: Rows[i] lists the
// columns j != i that strongly influence row i, in the column order of
// the matrix row (ascending for a sorted CSR). The rows of one graph are
// windows into a single flat buffer, capped so that an append to one
// cannot run into the next.
type Strength struct {
	N    int
	Rows [][]int
}

// splitRows cuts a flat buffer into rows, row i ending at end[i].
func splitRows(buf, end []int) [][]int {
	rows := make([][]int, len(end))
	start := 0
	for i, e := range end {
		rows[i] = buf[start:e:e]
		start = e
	}
	return rows
}

// StrengthGraphFunc computes the classical strength-of-connection graph
// with threshold theta: j strongly influences i when
//
//	-a_ij >= theta * max_{k != i} (-a_ik).
//
// For rows whose off-diagonal entries are all non-negative (non-M-matrix
// rows, which occur in the FEM problems), the absolute-value variant
// |a_ij| >= theta * max |a_ik| is used for that row instead, which is the
// standard robust fallback. A non-nil fun restricts the graph to
// same-function couplings: entry (i, j) is considered only when fun[i] ==
// fun[j]. This is the "unknown approach" for PDE systems (BoomerAMG's
// default for, e.g., elasticity): each solution component coarsens and
// interpolates through its own couplings, and cross-component entries are
// treated as weak.
func StrengthGraphFunc[I sparse.Index](a *sparse.Matrix[float64, I], theta float64, fun []int) *Strength {
	s := &Strength{N: a.Rows, Rows: make([][]int, a.Rows)}
	par.Run(a.NNZ(), a.Rows, &strengthKernel[I]{a: a, theta: theta, fun: fun, rows: s.Rows, buf: make([]int, a.NNZ())})
	return s
}

// strengthKernel computes the strong-neighbour list of each row in
// [lo, hi). A row's strong columns are a subset of its columns, so they
// are written into the row's own span of buf (shaped like a.ColIdx): rows
// only read A (and fun) and write their own span and Rows[i], and the
// sharded result is identical to the serial one for any worker count.
type strengthKernel[I sparse.Index] struct {
	a     *sparse.Matrix[float64, I]
	theta float64
	fun   []int
	rows  [][]int
	buf   []int
}

func (k *strengthKernel[I]) Do(_, lo, hi int) {
	a, theta, fun := k.a, k.theta, k.fun
	for i := lo; i < hi; i++ {
		cols, vals := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Vals[a.RowPtr[i]:a.RowPtr[i+1]]
		thresh, useAbs, ok := rowThreshold(cols, vals, i, theta, fun)
		if !ok {
			continue // isolated row
		}
		row := k.buf[a.RowPtr[i]:a.RowPtr[i]:a.RowPtr[i+1]]
		for p, j := range cols {
			if int(j) == i || fun != nil && fun[i] != fun[j] {
				continue
			}
			if v := vals[p]; (useAbs && math.Abs(v) >= thresh) || (!useAbs && -v >= thresh) {
				row = append(row, int(j))
			}
		}
		k.rows[i] = row
	}
}

// rowThreshold returns the strength threshold of row i, given as its
// columns and values: theta times its largest negative off-diagonal
// coupling or, for a row without one (useAbs), theta times its largest
// |a_ij|. A non-nil fun restricts the couplings to fun[j] == fun[i]. ok is
// false for a row without such couplings.
func rowThreshold[I sparse.Index](cols []I, vals []float64, i int, theta float64, fun []int) (thresh float64, useAbs, ok bool) {
	maxNeg, maxAbs := 0.0, 0.0
	for p, j := range cols {
		if int(j) == i || fun != nil && fun[i] != fun[j] {
			continue
		}
		v := vals[p]
		if -v > maxNeg {
			maxNeg = -v
		}
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	switch {
	case maxAbs == 0:
		return 0, false, false
	case maxNeg == 0:
		return theta * maxAbs, true, true
	}
	return theta * maxNeg, false, true
}

// Transpose returns the influence-transpose graph: T.Rows[j] lists the rows
// i that j strongly influences (i.e., j ∈ S.Rows[i]).
func (s *Strength) Transpose() *Strength {
	// Count, prefix-sum, fill: next[j] walks from the start of row j to
	// its end, which is where splitRows wants it.
	next := make([]int, s.N+1)
	for _, row := range s.Rows {
		for _, j := range row {
			next[j+1]++
		}
	}
	for j := 0; j < s.N; j++ {
		next[j+1] += next[j]
	}
	buf := make([]int, next[s.N])
	for i, row := range s.Rows {
		for _, j := range row {
			buf[next[j]] = i
			next[j]++
		}
	}
	return &Strength{N: s.N, Rows: splitRows(buf, next[:s.N])}
}

// distanceTwo builds the strength graph among the vertices marked keep,
// where u ~ v when u != v, both are kept, and either u→v is a strong edge or
// there is a path u→w→v of strong edges (w arbitrary). This is the graph on
// which aggressive (distance-two) coarsening runs its second pass.
func (s *Strength) distanceTwo(keep []bool) *Strength {
	mark := make([]int, s.N)
	for i := range mark {
		mark[i] = -1
	}
	var buf []int
	end := make([]int, s.N)
	for u := 0; u < s.N; u++ {
		if keep[u] {
			start := len(buf)
			add := func(v int) {
				if v != u && keep[v] && mark[v] != u {
					mark[v] = u
					buf = append(buf, v)
				}
			}
			for _, w := range s.Rows[u] {
				add(w)
				for _, v := range s.Rows[w] {
					add(v)
				}
			}
			slices.Sort(buf[start:])
		}
		end[u] = len(buf)
	}
	return &Strength{N: s.N, Rows: splitRows(buf, end)}
}
