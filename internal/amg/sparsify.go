// Post-RAP sparsification of Galerkin coarse operators (the non-Galerkin
// idea of Bienz, Falgout, Gropp, Olson & Schroder): the lumping kernel and
// the per-level record of what was kept. The engine constructors apply
// it, since their convergence guard measures with the engine's own Mult
// cycle, which this package cannot import (internal/engine, sparsify.go).
package amg

import (
	"math"
	"slices"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// SparsifyLevelStat records the guard-visible outcome of sparsifying one
// hierarchy level. Only levels with a CSR-backed operator are candidates,
// so on a stencil hierarchy (BuildOperatorWithStats) that is the
// algebraic tail below the geometric levels; Level indexes the whole
// hierarchy.
type SparsifyLevelStat struct {
	// Level is the hierarchy level index (finest = 0).
	Level int
	// NNZBefore and NNZAfter are the operator's stored nonzeros before
	// and after sparsification (equal when skipped or reverted).
	NNZBefore, NNZAfter int
	// Skipped means the level was a candidate but sparsification removed
	// nothing from it.
	Skipped bool
	// Reverted means the level was sparsified but the convergence guard
	// restored the unsparsified operator.
	Reverted bool
}

// DroppedNNZ sums the nonzeros removed across levels that kept their
// sparsified operator.
func (st *SetupStats) DroppedNNZ() int {
	total := 0
	for _, s := range st.SparsifyLevels {
		total += s.NNZBefore - s.NNZAfter
	}
	return total
}

// noDrop marks a row whose entries are never weak: one without a stored
// diagonal (it cannot absorb lumped mass, so it is kept verbatim) or
// without off-diagonal couplings.
const noDrop = -1.0

// SparsifyLump returns a copy of the square matrix a without the
// off-diagonal entries that are weak under the classical strength
// measure at theta (the rule of StrengthGraphFunc, absolute-value
// fallback included) as seen from BOTH endpoint rows, each dropped value
// added to its row's diagonal. The drop decision for (i, j) and (j, i) is
// the same on a symmetric matrix and only diagonals move, so lumping
// preserves row sums and symmetry. Rows without a stored diagonal are
// copied verbatim.
//
// Three row passes run over the shared par pool: each row's threshold,
// each row's kept count (a serial prefix sum then sizes the output
// exactly), and the kept entries with the lumped diagonal. Rows read A and
// the thresholds and write only their own slots, so the result is
// bitwise-identical at any worker count. Column order within a row is the
// input order, so the output needs no sort.
func SparsifyLump[I sparse.Index](a *sparse.Matrix[float64, I], theta float64) *sparse.Matrix[float64, I] {
	out := &sparse.Matrix[float64, I]{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]I, a.Rows+1)}
	k := &lumpKernel[I]{a: a, out: out, theta: theta, thresh: make([]float64, a.Rows), useAbs: make([]bool, a.Rows)}
	run := func(pass int) {
		k.pass = pass
		par.Run(a.NNZ(), a.Rows, k)
	}
	run(0)
	run(1)
	for i := 0; i < a.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	out.ColIdx = make([]I, out.RowPtr[a.Rows])
	out.Vals = make([]float64, out.RowPtr[a.Rows])
	run(2)
	return out
}

// lumpKernel runs pass 0 (thresholds), 1 (kept counts into out.RowPtr[i+1])
// or 2 (kept entries and lumped diagonals) of SparsifyLump on its rows.
type lumpKernel[I sparse.Index] struct {
	a, out *sparse.Matrix[float64, I]
	theta  float64
	pass   int
	thresh []float64
	useAbs []bool
}

func (k *lumpKernel[I]) Do(_, lo, hi int) {
	a, out := k.a, k.out
	for i := lo; i < hi; i++ {
		cols, vals := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Vals[a.RowPtr[i]:a.RowPtr[i+1]]
		switch k.pass {
		case 0:
			thresh, useAbs, ok := rowThreshold(cols, vals, i, k.theta, nil)
			if !ok || !slices.Contains(cols, I(i)) {
				thresh = noDrop
			}
			k.thresh[i], k.useAbs[i] = thresh, useAbs
		case 1:
			kept := 0
			for p, j := range cols {
				if int(j) == i || !k.drop(i, int(j), vals[p]) {
					kept++
				}
			}
			out.RowPtr[i+1] = I(kept)
		case 2:
			q, diag, dropped := int(out.RowPtr[i]), -1, 0.0
			for p, j := range cols {
				v := vals[p]
				if int(j) == i {
					diag = q
				} else if k.drop(i, int(j), v) {
					dropped += v
					continue
				}
				out.ColIdx[q], out.Vals[q] = j, v
				q++
			}
			if dropped != 0 {
				out.Vals[diag] += dropped
			}
		}
	}
}

// drop reports whether entry (i, j) of value v is weak under both row i's
// and row j's threshold.
func (k *lumpKernel[I]) drop(i, j int, v float64) bool {
	return weakUnder(v, k.thresh[i], k.useAbs[i]) && weakUnder(v, k.thresh[j], k.useAbs[j])
}

// weakUnder reports whether an entry of value v is weak under a row's
// threshold: the negation of StrengthGraphFunc's strong test. A noDrop
// row never classifies anything as weak.
func weakUnder(v, thresh float64, useAbs bool) bool {
	if thresh < 0 {
		return false
	}
	if useAbs {
		return math.Abs(v) < thresh
	}
	return -v < thresh
}
