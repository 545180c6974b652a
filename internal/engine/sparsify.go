package engine

import (
	"math"
	"sort"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

const (
	// guardCycles is the number of Mult cycles behind each probe factor;
	// ConvergenceFactor measures over the last half, so the transient,
	// which flatters a sparsified hierarchy, is excluded. 24 is long
	// enough for the asymptotic rate of elasticity to emerge.
	guardCycles = 24
	// guardReduction is the residual reduction the guard's bound is
	// stated at: a sparsified hierarchy may need at most one more cycle
	// than the Galerkin one to reach it.
	guardReduction = 1e-6
)

// sparsifyHierarchy replaces each interior coarse operator with a
// CSR-backed Op (levels 1..L-2; level 0 is the problem definition, the
// coarsest is LU-factored and tiny) by its twin lumped at theta. The
// guard then probes the Mult factor of the sparsified hierarchy against
// the Galerkin one's and reverts levels, largest relative drop first,
// until extraCycles is at most one; each twin it keeps gets twin·P as its
// A·P. The probe runs the engine's own Mult with smo, the smoother the
// engine will be built with, so a decision is made for the cycles it
// serves; the cache keys name the smoother, so a cached hierarchy is never
// served to another. It runs in float64 on the hierarchy from the first
// level with a CSR interpolant down (all of it on the assembled path, the
// algebraic tail of a stencil one), sharing h.Coarse, which no candidate
// feeds.
// Where smo diverges on the Galerkin hierarchy (factor ≥ 1), a twin stays
// only if the probe factor does not grow, and the solvers report the
// divergence as they would without sparsification. The outcome goes to
// st, whose Total gains the time spent here.
func sparsifyHierarchy(h *amg.Hierarchy, theta float64, smo smoother.Config, st *amg.SetupStats) error {
	defer func(t0 time.Time) {
		d := time.Since(t0)
		st.Sparsify, st.Total = st.Sparsify+d, st.Total+d
	}(time.Now())

	type candidate struct {
		stat int         // index into st.SparsifyLevels
		op   op.Operator // the other of the Galerkin operator and its twin
	}
	var installed []candidate
	for lvl := 1; lvl < len(h.Levels)-1; lvl++ {
		lev := &h.Levels[lvl]
		a := op.AsCSR(lev.Op)
		if a == nil {
			continue
		}
		twin := amg.SparsifyLump(a, theta) // never larger than a
		stat := amg.SparsifyLevelStat{Level: lvl, NNZBefore: a.NNZ(), NNZAfter: twin.NNZ(), Skipped: twin.NNZ() == a.NNZ()}
		if !stat.Skipped {
			installed = append(installed, candidate{stat: len(st.SparsifyLevels), op: lev.Op})
			lev.Op = op.FromCSR(twin)
		}
		st.SparsifyLevels = append(st.SparsifyLevels, stat)
	}
	if len(installed) == 0 {
		return nil
	}

	// The level above the first candidate is the first with a CSR
	// interpolant: the fine level, or a stencil hierarchy's hand-off level.
	// A probe builds only what Mult reads: no P̄, so the levels' A·P stay
	// the Galerkin ones until the guard has decided.
	tail := &amg.Hierarchy{Levels: h.Levels[st.SparsifyLevels[0].Level-1:], Coarse: h.Coarse}
	probe := func() (float64, error) {
		s, err := newFromHierarchy(tail, smo, false)
		if err != nil {
			return 0, err
		}
		return s.ConvergenceFactor(Mult, guardCycles, 1), nil
	}
	// The Galerkin factor is probed by swapping the originals back in.
	swap := func() {
		for i, c := range installed {
			lev := &h.Levels[st.SparsifyLevels[c.stat].Level]
			lev.Op, installed[i].op = c.op, lev.Op
		}
	}
	swap()
	golden, err := probe()
	swap()
	if err != nil {
		return err
	}

	// Revert the most aggressively sparsified levels first (largest
	// relative drop; the stable sort leaves ties finer level first, whose
	// operator matters most).
	drop := func(c candidate) float64 {
		s := st.SparsifyLevels[c.stat]
		return 1 - float64(s.NNZAfter)/float64(s.NNZBefore)
	}
	sort.SliceStable(installed, func(i, j int) bool { return drop(installed[i]) > drop(installed[j]) })
	for _, c := range installed {
		rho, err := probe()
		if err != nil {
			return err
		}
		if extraCycles(rho, golden) <= 1 {
			break
		}
		stat := &st.SparsifyLevels[c.stat]
		h.Levels[stat.Level].Op = c.op
		stat.Reverted, stat.NNZAfter = true, stat.NNZBefore
		st.SparsifyFallbacks++
	}
	// Each kept twin gets its twin·P.
	for _, s := range st.SparsifyLevels {
		if lev := &h.Levels[s.Level]; !s.Skipped && !s.Reverted {
			lev.AP = sparse.MatMul(op.AsCSR(lev.Op), lev.Itp.(*op.CSRInterp[float64, uint32]).P)
		}
	}
	return nil
}

// extraCycles is how many more cycles a hierarchy of factor s needs than
// one of factor g to reduce the residual by guardReduction:
// ln(guardReduction)/ln s − ln(guardReduction)/ln g. A factor at or below
// g costs nothing; one at or above 1 never gets there.
func extraCycles(s, g float64) float64 {
	if s <= g {
		return 0
	}
	if s >= 1 {
		return math.Inf(1)
	}
	return math.Log(guardReduction)/math.Log(s) - math.Log(guardReduction)/math.Log(g)
}
