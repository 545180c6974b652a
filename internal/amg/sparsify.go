// Post-RAP sparsification of Galerkin coarse operators with a per-level
// convergence guard.
//
// The Galerkin chain is built unsparsified — the hierarchy structure
// (strength graphs, C/F splits, interpolants, triple products) is
// bitwise-identical to a build without sparsification. After the level
// loop each interior coarse operator is replaced by its strength-aware
// sparsified twin (sparse.SparsifyStrength), and a cheap deterministic
// probe — a V(1,1) l1-Jacobi cycle on a fixed pseudorandom right
// hand side — compares the convergence factor of the sparsified
// hierarchy against the unsparsified one. When the factors imply more
// than GuardTol extra iterations-to-tolerance, levels are reverted,
// largest relative drop first, until the probe is back within bound. The guard's
// decisions are surfaced in SetupStats (per-level nnz before/after,
// skip/revert flags, fallback count) and forwarded to obs counters by
// the engine.
package amg

import (
	"math"
	"sort"
	"time"

	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// SparsifyOptions configures post-RAP coarse-operator sparsification.
// The zero value disables it (Theta <= 0).
type SparsifyOptions struct {
	// Theta is the drop threshold for the classical strength measure;
	// entries weak under BOTH endpoint rows at this threshold are
	// dropped. <= 0 disables sparsification entirely.
	Theta float64
	// Mode selects the compensation for dropped mass (lump preserves row
	// sums and symmetry; rescale preserves row sums only; drop is
	// uncompensated and exists for experiments and guard tests).
	Mode sparse.SparsifyMode
	// MaxLevelGrowth gates which levels are sparsified: only levels whose
	// nnz/row exceeds MaxLevelGrowth times the finest level's nnz/row are
	// candidates. 0 means no gate (every interior coarse level).
	MaxLevelGrowth float64
	// GuardTol bounds the estimated iteration inflation the probe may
	// attribute to sparsification before the guard reverts levels:
	// iterations-to-tolerance scale as 1/−log ρ of the probe convergence
	// factor, and the sparsified estimate may exceed the unsparsified one
	// by at most this fraction. The bound is on iterations, not on the
	// factor itself, because near ρ = 1 a tiny absolute factor increase
	// multiplies the iteration count while a fast hierarchy absorbs a far
	// larger one. 0 means the default (0.05, i.e. at most 5% more
	// iterations); negative disables the guard.
	GuardTol float64
}

// Enabled reports whether sparsification is active.
func (o SparsifyOptions) Enabled() bool { return o.Theta > 0 }

const (
	defaultGuardTol = 0.05
	// guardCycles is the number of probe V-cycles used to estimate the
	// convergence factor; the factor is measured over the last half so
	// the initial transient (which flatters a sparsified hierarchy) is
	// excluded. 24 is long enough for the asymptotic rate of a slow
	// hierarchy (elasticity) to emerge from the transient.
	guardCycles = 24
)

func (o SparsifyOptions) guardTol() float64 {
	if o.GuardTol == 0 {
		return defaultGuardTol
	}
	return o.GuardTol
}

// SparsifyLevelStat records the guard-visible outcome of sparsifying one
// hierarchy level.
type SparsifyLevelStat struct {
	// Level is the hierarchy level index (finest = 0).
	Level int
	// NNZBefore and NNZAfter are the operator's stored nonzeros before
	// and after sparsification (equal when skipped or reverted).
	NNZBefore, NNZAfter int
	// Skipped means the level was a candidate but not sparsified (the
	// MaxLevelGrowth gate, or sparsification removed nothing).
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

// sparsifyHierarchy replaces interior coarse operators (levels 1..L-2;
// level 0 is the problem definition, the coarsest is LU-factored and
// tiny) with their sparsified twins, then runs the convergence guard.
// Must run before dense.Factor so a reverted coarsest-adjacent chain is
// what gets factored and viewed.
func sparsifyHierarchy(h *Hierarchy, opt SparsifyOptions, st *SetupStats) {
	if !opt.Enabled() || len(h.Levels) < 3 {
		return
	}
	t0 := time.Now()
	defer func() { st.Sparsify += time.Since(t0) }()

	fineDensity := float64(h.Levels[0].Op.NNZEquivalent()) / float64(h.Levels[0].Op.Rows())

	type candidate struct {
		stat *SparsifyLevelStat
		orig op.Operator // unsparsified operator, retained until the guard passes
	}
	var installed []candidate
	// Pre-size the stats so the appends below never reallocate: the
	// retained *SparsifyLevelStat pointers must stay valid for the guard.
	st.SparsifyLevels = make([]SparsifyLevelStat, 0, len(h.Levels)-2)
	for lvl := 1; lvl < len(h.Levels)-1; lvl++ {
		orig := h.Levels[lvl].Op
		a := op.AsCSR(orig)
		st.SparsifyLevels = append(st.SparsifyLevels, SparsifyLevelStat{
			Level: lvl, NNZBefore: a.NNZ(), NNZAfter: a.NNZ(),
		})
		stat := &st.SparsifyLevels[len(st.SparsifyLevels)-1]
		if opt.MaxLevelGrowth > 0 {
			if density := float64(a.NNZ()) / float64(a.Rows); density <= opt.MaxLevelGrowth*fineDensity {
				stat.Skipped = true
				continue
			}
		}
		twin := sparse.SparsifyStrength(a, opt.Theta, opt.Mode)
		if twin.NNZ() >= a.NNZ() {
			stat.Skipped = true
			continue
		}
		stat.NNZAfter = twin.NNZ()
		h.Levels[lvl].Op = op.FromCSR(twin)
		installed = append(installed, candidate{stat: stat, orig: orig})
	}
	if len(installed) == 0 || opt.GuardTol < 0 {
		return
	}

	// Guard: probe the sparsified hierarchy against the unsparsified one.
	// The probe is deterministic, so the golden factor is computed by
	// temporarily restoring the originals (they are still retained here).
	swap := func() {
		for i := range installed {
			lev := &h.Levels[installed[i].stat.Level]
			lev.Op, installed[i].orig = installed[i].orig, lev.Op
		}
	}
	swap()
	golden := probeConvFactor(h)
	swap()
	limit := 1 + opt.guardTol()

	// Revert the most aggressively sparsified levels first (largest
	// relative drop; ties to the finer level, whose operator matters most).
	sort.SliceStable(installed, func(i, j int) bool {
		fi := 1 - float64(installed[i].stat.NNZAfter)/float64(installed[i].stat.NNZBefore)
		fj := 1 - float64(installed[j].stat.NNZAfter)/float64(installed[j].stat.NNZBefore)
		if fi != fj {
			return fi > fj
		}
		return installed[i].stat.Level < installed[j].stat.Level
	})
	for _, c := range installed {
		if iterInflation(probeConvFactor(h), golden) <= limit {
			break
		}
		h.Levels[c.stat.Level].Op = c.orig
		c.stat.Reverted = true
		c.stat.NNZAfter = c.stat.NNZBefore
		st.SparsifyFallbacks++
	}
}

// iterInflation estimates the relative increase in iterations-to-
// tolerance implied by moving the probe convergence factor from g
// (golden) to s (sparsified): iterations scale as 1/−log ρ, so the
// ratio is log g / log s. A sparsified factor at or above 1 means the
// probe diverged — infinite inflation.
func iterInflation(s, g float64) float64 {
	if s <= g {
		return 1 // no slower than golden
	}
	if s >= 1 || g <= 0 {
		return math.Inf(1)
	}
	return math.Log(g) / math.Log(s)
}

// probeConvFactor estimates the hierarchy's asymptotic convergence
// factor from guardCycles self-contained V(1,1) l1-Jacobi cycles on a
// fixed pseudorandom right-hand side. The factor is measured over the LAST
// half of the run, (‖r_k‖/‖r_{k/2}‖)^(2/k): the early cycles are
// dominated by the transient reduction of rough error components, which
// a sparsified hierarchy handles as well as the golden one — only the
// tail exposes the asymptotic rate that governs iterations-to-tolerance.
// It runs during setup, before the coarsest LU exists, so the coarsest
// level is smoothed (two Jacobi sweeps) rather than solved — a fixed
// handicap shared by both the golden and the sparsified probe, so their
// difference isolates the sparsification effect.
func probeConvFactor(h *Hierarchy) float64 {
	p := newProbe(h)
	a := h.Levels[0].Op
	n := a.Rows()
	b := make([]float64, n)
	for i := range b {
		b[i] = probeRHS(i)
	}
	x := make([]float64, n)
	r := make([]float64, n)
	half := guardCycles / 2
	rHalf := 0.0
	for c := 0; c < guardCycles; c++ {
		if c == guardCycles-half {
			a.Residual(r, b, x)
			rHalf = norm2(r)
		}
		p.vcycle(0, x, b)
	}
	if rHalf == 0 {
		return 0
	}
	a.Residual(r, b, x)
	return math.Pow(norm2(r)/rHalf, 1/float64(half))
}

// probe holds the per-level scratch of the guard's V-cycle runner. Its
// smoother is l1-Jacobi — the diagonal replaced by the row l1-norms —
// which is unconditionally convergent for SPD operators (x^T A x <=
// x^T D_l1 x), so the probe factor is always below 1 and the golden /
// sparsified comparison never degenerates into comparing two divergent
// runs (plain damped Jacobi diverges on the FEM hierarchies).
type probe struct {
	h    *Hierarchy
	diag [][]float64 // l1-Jacobi row norms per level
	r    [][]float64 // residual scratch per level
	bc   [][]float64 // coarse RHS per level (index k holds level k+1's b)
	xc   [][]float64 // coarse correction per level
}

func newProbe(h *Hierarchy) *probe {
	L := len(h.Levels)
	p := &probe{h: h, diag: make([][]float64, L), r: make([][]float64, L), bc: make([][]float64, L), xc: make([][]float64, L)}
	for k := 0; k < L; k++ {
		a := h.Levels[k].Op
		p.diag[k] = a.RowL1Norms()
		p.r[k] = make([]float64, a.Rows())
		if k+1 < L {
			nc := h.Levels[k+1].Op.Rows()
			p.bc[k] = make([]float64, nc)
			p.xc[k] = make([]float64, nc)
		}
	}
	return p
}

// jacobi performs one l1-Jacobi sweep x += D_l1⁻¹ (b − A x) on level k.
func (p *probe) jacobi(k int, x, b []float64) {
	r, d := p.r[k], p.diag[k]
	p.h.Levels[k].Op.Residual(r, b, x)
	for i := range x {
		if d[i] != 0 {
			x[i] += r[i] / d[i]
		}
	}
}

func (p *probe) vcycle(k int, x, b []float64) {
	if k == len(p.h.Levels)-1 {
		p.jacobi(k, x, b)
		p.jacobi(k, x, b)
		return
	}
	p.jacobi(k, x, b)
	lvl := &p.h.Levels[k]
	lvl.Op.Residual(p.r[k], b, x)
	lvl.Itp.ApplyT(p.bc[k], p.r[k])
	ec := p.xc[k]
	clear(ec)
	p.vcycle(k+1, ec, p.bc[k])
	lvl.Itp.ApplyAdd(x, ec)
	p.jacobi(k, x, b)
}

// probeRHS is a splitmix64-style hash of the index mapped to [-1, 1):
// a fixed, platform-independent pseudorandom right-hand side.
func probeRHS(i int) float64 {
	z := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53)*2 - 1
}

func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
