package op

import "sync"

// SmoothedInterp composes the smoothed interpolant
//
//	P̄ = (I − diag(scale)·A) · P
//
// from an operator and a base interpolant without materializing P̄ or P̄ᵀ:
// prolongation is a base prolongation followed by the one-pass scaled
// residual (fine = t − scale∘(A t)), and restriction uses A = Aᵀ to run
// the one-pass smoothed residual ahead of the base restriction
// (coarse = Pᵀ (fine − A (scale∘fine))). Against a CSR A and P this
// replaces two stored matrices (P̄ and P̄ᵀ, each as dense as A·P) with one
// pooled fine-length scratch vector.
//
// Note the composition is mathematically identical to the materialized
// P̄ but not bitwise: the materialized path sums P̄'s pre-multiplied
// entries, the composed path applies the two factors in sequence. The
// engine composes only over a matrix-free base interpolant (the geometric
// P₀ of a stencil fine level); every stored interpolant, float32 ones
// included, gets a materialized P̄. Composing P̄₁ over the level-1 class
// stencil as well was measured on lib-pcg-mf (2 vCPU Intel Xeon,
// go1.24): hier_mb 14.69 → 7.63 MB,
// but each apply adds a full level-1 operator pass and solve_s rose
// 0.328 → 0.335 s, worse in 4 of 5 pairs (EXPERIMENTS.md, "Composed P̄₁
// over the class stencil").
type SmoothedInterp struct {
	A     SmoothedApplier
	P     Interp
	Scale []float64

	fineScratch sync.Pool
}

// NewSmoothedInterp composes P̄ = (I − diag(scale)·A)·P. A must be
// symmetric (true for every operator this solver builds hierarchies
// from); scale has fine length.
func NewSmoothedInterp(a SmoothedApplier, p Interp, scale []float64) *SmoothedInterp {
	si := &SmoothedInterp{A: a, P: p, Scale: scale}
	n := p.FineRows()
	si.fineScratch.New = func() any {
		s := make([]float64, n)
		return &s
	}
	return si
}

func (si *SmoothedInterp) FineRows() int { return si.P.FineRows() }

// NNZEquivalent is the work of one apply: the base interpolant plus a
// full operator pass.
func (si *SmoothedInterp) NNZEquivalent() int {
	return si.P.NNZEquivalent() + si.A.NNZEquivalent()
}

// Bytes is the composition's own storage: just the scale vector (the
// operator and base interpolant are accounted where they live).
func (si *SmoothedInterp) Bytes() int { return 8 * len(si.Scale) }

func (si *SmoothedInterp) getScratch() *[]float64  { return si.fineScratch.Get().(*[]float64) }
func (si *SmoothedInterp) putScratch(s *[]float64) { si.fineScratch.Put(s) }

// Apply computes fine = P̄ coarse = t − scale∘(A t) with t = P coarse.
func (si *SmoothedInterp) Apply(fine, coarse []float64) {
	t := si.getScratch()
	si.P.Apply(*t, coarse)
	si.A.ScaledResidual(fine, si.Scale, *t)
	si.putScratch(t)
}

// ApplyAdd computes fine += P̄ coarse.
func (si *SmoothedInterp) ApplyAdd(fine, coarse []float64) {
	u := si.getScratch()
	si.Apply(*u, coarse)
	for i := range fine {
		fine[i] += (*u)[i]
	}
	si.putScratch(u)
}

// ApplyT computes coarse = P̄ᵀ fine = Pᵀ (fine − A (scale∘fine)).
func (si *SmoothedInterp) ApplyT(coarse, fine []float64) {
	t := si.getScratch()
	si.A.SmoothedResidual(*t, si.Scale, fine)
	si.P.ApplyT(coarse, *t)
	si.putScratch(t)
}

// ApplyRange computes fine[lo:hi] = (P̄ coarse)[lo:hi]. The smoothing
// factor needs the full base prolongation, so each call stages P coarse
// into its own scratch and then runs the one-pass scaled residual on the
// requested rows only — correct (and deterministic) from concurrent
// goroutine-team members, at the cost of recomputing the base
// prolongation per caller.
func (si *SmoothedInterp) ApplyRange(fine, coarse []float64, lo, hi int) {
	t := si.getScratch()
	si.P.Apply(*t, coarse)
	si.A.ScaledResidualRange(fine, si.Scale, *t, lo, hi)
	si.putScratch(t)
}

// ApplyTRange computes coarse[lo:hi] = (P̄ᵀ fine)[lo:hi], staging the full
// smoothed residual per caller (see ApplyRange).
func (si *SmoothedInterp) ApplyTRange(coarse, fine []float64, lo, hi int) {
	t := si.getScratch()
	si.A.SmoothedResidual(*t, si.Scale, fine)
	si.P.ApplyTRange(coarse, *t, lo, hi)
	si.putScratch(t)
}
