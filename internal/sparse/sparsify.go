// Strength-aware post-RAP sparsification of Galerkin coarse operators.
//
// Galerkin triple products densify every coarse level (stencil growth),
// and coarse-level nonzeros are exactly where every cycle variant pays
// per entry. SparsifyStrength drops the entries that are weak under the
// same classical strength-of-connection measure the AMG setup coarsens
// with, and compensates the dropped mass so row sums — and, for the
// lumped mode on symmetric input, symmetry — are preserved (the
// non-Galerkin sparsification idea of Bienz, Falgout, Gropp, Olson &
// Schroder).
//
// The kernel follows the repo-wide sharded two-pass discipline of the
// setup GEMM (gemm.go):
//
//   - A threshold pass computes each row's drop threshold (the strength
//     measure: theta times the row's largest negative coupling, with the
//     absolute-value fallback for non-M-matrix rows).
//   - A symbolic pass counts each output row's kept entries directly
//     into RowPtr[i+1]; a serial prefix sum sizes the output exactly.
//   - A numeric pass writes kept entries and folds the dropped mass into
//     the row per the compensation mode.
//
// All three passes are row-partitioned over the shared par.Default()
// pool. Rows only read A and the precomputed per-row thresholds and
// write their own output slots, so the sharded result is bitwise
// identical to the serial one at any worker count. Per-call scratch (the
// threshold arrays) is recycled through a sync.Pool with an allocation
// counter (SparsifyScratchAllocs), and SparsifyStrengthInto reuses the
// caller's output storage: steady-state re-sparsification of an
// unchanged-size operator performs zero heap allocations.
package sparse

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asyncmg/internal/par"
)

// SparsifyMode selects how the dropped mass of a sparsified row is
// compensated.
type SparsifyMode int

const (
	// SparsifyLump adds each dropped off-diagonal entry to the row's
	// diagonal: row sums are preserved exactly (up to rounding), and —
	// because the drop decision is symmetric and only diagonals move —
	// a symmetric input stays symmetric.
	SparsifyLump SparsifyMode = iota
	// SparsifyRescale scales the kept off-diagonal entries so the row sum
	// is preserved without touching the diagonal. Row scales differ, so
	// symmetry is generally not preserved; rows whose kept off-diagonal
	// mass vanishes (or whose scale would flip sign) fall back to lumping.
	SparsifyRescale
	// SparsifyDropOnly drops weak entries with no compensation. Row sums
	// change; useful only for experiments (and for provoking the setup
	// guard in tests).
	SparsifyDropOnly
)

func (m SparsifyMode) String() string {
	switch m {
	case SparsifyLump:
		return "lump"
	case SparsifyRescale:
		return "rescale"
	case SparsifyDropOnly:
		return "drop"
	}
	return "unknown"
}

// ParseSparsifyMode maps the flag spelling to a mode.
func ParseSparsifyMode(s string) (SparsifyMode, error) {
	switch s {
	case "lump", "":
		return SparsifyLump, nil
	case "rescale":
		return SparsifyRescale, nil
	case "drop":
		return SparsifyDropOnly, nil
	}
	return 0, fmt.Errorf("sparse: unknown sparsify mode %q (want lump, rescale, drop)", s)
}

// sparsifyScratch is the pooled per-call workspace: each row's drop
// threshold and its strength-measure flavour (absolute-value fallback
// for rows without negative couplings), plus a no-diagonal marker
// (thresh < 0) for rows that must be kept verbatim.
type sparsifyScratch struct {
	thresh []float64
	useAbs []bool
}

var sparsifyScratchPool = sync.Pool{New: func() any {
	sparsifyScratchNews.Add(1)
	return &sparsifyScratch{}
}}

var sparsifyScratchNews atomic.Int64

// SparsifyScratchAllocs reports how many sparsify scratch workspaces
// have been constructed process-wide. Steady-state re-sparsification of
// an unchanged-size operator must not move this counter (the allocation
// contract, enforced like GEMMScratchAllocs).
func SparsifyScratchAllocs() int64 { return sparsifyScratchNews.Load() }

func acquireSparsifyScratch(rows int) *sparsifyScratch {
	s := sparsifyScratchPool.Get().(*sparsifyScratch)
	if cap(s.thresh) < rows {
		s.thresh = make([]float64, rows)
		s.useAbs = make([]bool, rows)
	}
	s.thresh = s.thresh[:rows]
	s.useAbs = s.useAbs[:rows]
	return s
}

func releaseSparsifyScratch(s *sparsifyScratch) { sparsifyScratchPool.Put(s) }

// noDiag marks a row without a stored diagonal: it cannot absorb lumped
// mass, so it is kept verbatim (and never used as a drop threshold).
const noDiag = -1.0

// sparsifyThreshKernel computes each row's drop threshold: theta times
// the classical strength measure of amg.StrengthGraphFunc (largest negative
// coupling -a_ik, with the |a_ik| fallback for rows whose off-diagonal
// entries are all non-negative). Rows with no off-diagonal entries or no
// stored diagonal get the noDiag sentinel and are kept verbatim.
type sparsifyThreshKernel struct {
	a      *CSR
	theta  float64
	thresh []float64
	useAbs []bool
}

func (k *sparsifyThreshKernel) Do(_, lo, hi int) {
	a, theta := k.a, k.theta
	for i := lo; i < hi; i++ {
		maxNeg, maxAbs := 0.0, 0.0
		hasDiag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i {
				hasDiag = true
				continue
			}
			v := a.Vals[p]
			if -v > maxNeg {
				maxNeg = -v
			}
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if !hasDiag || maxAbs == 0 {
			k.thresh[i] = noDiag
			k.useAbs[i] = false
			continue
		}
		if maxNeg == 0 {
			k.thresh[i] = theta * maxAbs
			k.useAbs[i] = true
		} else {
			k.thresh[i] = theta * maxNeg
			k.useAbs[i] = false
		}
	}
}

// weakUnder reports whether an entry of value v is weak under row r's
// threshold. Rows flagged noDiag never classify anything as weak.
func weakUnder(v, thresh float64, useAbs bool) bool {
	if thresh < 0 {
		return false
	}
	if useAbs {
		if v < 0 {
			v = -v
		}
		return v < thresh
	}
	return -v < thresh
}

// drop is the symmetric drop rule: entry (i, j) is dropped only when it
// is weak under BOTH endpoint rows' thresholds. On a symmetric matrix
// (a_ij == a_ji) the decision for (i, j) and (j, i) is then identical,
// so the sparsified pattern stays symmetric.
func (s *sparsifyScratch) drop(i, j int, v float64) bool {
	return weakUnder(v, s.thresh[i], s.useAbs[i]) && weakUnder(v, s.thresh[j], s.useAbs[j])
}

// sparsifyCountKernel counts each row's kept entries into rowPtr[i+1].
type sparsifyCountKernel struct {
	a       *CSR
	scratch *sparsifyScratch
	rowPtr  []int
}

func (k *sparsifyCountKernel) Do(_, lo, hi int) {
	a, s := k.a, k.scratch
	for i := lo; i < hi; i++ {
		cnt := 0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i || !s.drop(i, j, a.Vals[p]) {
				cnt++
			}
		}
		k.rowPtr[i+1] = cnt
	}
}

// sparsifyFillKernel writes each row's kept entries into its pre-sized
// slot and applies the compensation mode. Column order within a row is
// the input order (ascending), so the output needs no sort.
type sparsifyFillKernel struct {
	a, out  *CSR
	scratch *sparsifyScratch
	mode    SparsifyMode
}

func (k *sparsifyFillKernel) Do(_, lo, hi int) {
	a, out, s, mode := k.a, k.out, k.scratch, k.mode
	for i := lo; i < hi; i++ {
		base := out.RowPtr[i]
		diagSlot := -1
		dropped := 0.0 // dropped off-diagonal mass of this row
		keptOff := 0.0 // kept off-diagonal mass (rescale denominator)
		q := base
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			v := a.Vals[p]
			if j == i {
				diagSlot = q
			} else if s.drop(i, j, v) {
				dropped += v
				continue
			} else {
				keptOff += v
			}
			out.ColIdx[q] = j
			out.Vals[q] = v
			q++
		}
		if dropped == 0 {
			continue
		}
		switch mode {
		case SparsifyLump:
			out.Vals[diagSlot] += dropped
		case SparsifyRescale:
			// Preserve the row sum by scaling the kept off-diagonal
			// entries: s = (kept + dropped) / kept. Rows whose kept mass
			// vanishes or whose scale would flip sign fall back to lumping.
			scale := (keptOff + dropped) / keptOff
			if keptOff == 0 || scale <= 0 {
				out.Vals[diagSlot] += dropped
				break
			}
			for z := base; z < out.RowPtr[i+1]; z++ {
				if z != diagSlot {
					out.Vals[z] *= scale
				}
			}
		case SparsifyDropOnly:
			// No compensation.
		}
	}
}

var (
	sparsifyThreshPool = sync.Pool{New: func() any { return new(sparsifyThreshKernel) }}
	sparsifyCountPool  = sync.Pool{New: func() any { return new(sparsifyCountKernel) }}
	sparsifyFillPool   = sync.Pool{New: func() any { return new(sparsifyFillKernel) }}
)

// SparsifyStrength returns a sparsified copy of a: off-diagonal entries
// weak under the classical strength measure at threshold theta — weak
// as seen from BOTH endpoint rows, so a symmetric pattern stays
// symmetric — are dropped and their mass compensated per mode. The
// diagonal is always kept; rows without a stored diagonal are copied
// verbatim. theta <= 0 returns a plain clone.
//
// The result is bitwise-identical to the serial computation for any
// worker count.
func SparsifyStrength(a *CSR, theta float64, mode SparsifyMode) *CSR {
	out := &CSR{}
	SparsifyStrengthInto(out, a, theta, mode)
	return out
}

// SparsifyStrengthInto is SparsifyStrength writing into dst, reusing
// dst's RowPtr/ColIdx/Vals capacity: re-sparsifying an operator of
// unchanged size through a warm dst performs no heap allocations (the
// 0 allocs/op contract of the sparsify benchmarks).
func SparsifyStrengthInto(dst, a *CSR, theta float64, mode SparsifyMode) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: SparsifyStrength needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	dst.Rows, dst.Cols = a.Rows, a.Cols
	if cap(dst.RowPtr) < a.Rows+1 {
		dst.RowPtr = make([]int, a.Rows+1)
	}
	dst.RowPtr = dst.RowPtr[:a.Rows+1]
	dst.RowPtr[0] = 0
	if theta <= 0 {
		copyInto(dst, a)
		return
	}
	parallel := par.Par(a.NNZ())
	s := acquireSparsifyScratch(a.Rows)

	tk := sparsifyThreshPool.Get().(*sparsifyThreshKernel)
	tk.a, tk.theta, tk.thresh, tk.useAbs = a, theta, s.thresh, s.useAbs
	runSparsify(parallel, a.Rows, tk)
	*tk = sparsifyThreshKernel{}
	sparsifyThreshPool.Put(tk)

	ck := sparsifyCountPool.Get().(*sparsifyCountKernel)
	ck.a, ck.scratch, ck.rowPtr = a, s, dst.RowPtr
	runSparsify(parallel, a.Rows, ck)
	*ck = sparsifyCountKernel{}
	sparsifyCountPool.Put(ck)

	for i := 0; i < a.Rows; i++ {
		dst.RowPtr[i+1] += dst.RowPtr[i]
	}
	nnz := dst.RowPtr[a.Rows]
	if cap(dst.ColIdx) < nnz {
		dst.ColIdx = make([]int, nnz)
		dst.Vals = make([]float64, nnz)
	}
	dst.ColIdx = dst.ColIdx[:nnz]
	dst.Vals = dst.Vals[:nnz]

	fk := sparsifyFillPool.Get().(*sparsifyFillKernel)
	fk.a, fk.out, fk.scratch, fk.mode = a, dst, s, mode
	runSparsify(parallel, a.Rows, fk)
	*fk = sparsifyFillKernel{}
	sparsifyFillPool.Put(fk)

	releaseSparsifyScratch(s)
}

func runSparsify(parallel bool, rows int, k par.Kernel) {
	if parallel {
		par.Default().Run(rows, k)
	} else {
		k.Do(0, 0, rows)
	}
}

// copyInto clones a into dst reusing dst's capacity.
func copyInto(dst, a *CSR) {
	copy(dst.RowPtr, a.RowPtr)
	nnz := a.NNZ()
	if cap(dst.ColIdx) < nnz {
		dst.ColIdx = make([]int, nnz)
		dst.Vals = make([]float64, nnz)
	}
	dst.ColIdx = dst.ColIdx[:nnz]
	dst.Vals = dst.Vals[:nnz]
	copy(dst.ColIdx, a.ColIdx)
	copy(dst.Vals, a.Vals)
}
