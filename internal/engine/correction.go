// The single implementation of the per-grid correction math (the B_k/C_k
// operators of the paper's Section III): restrict the fine residual to
// grid k, smooth (or coarse-solve, or apply AFACx's modified right-hand
// side), and prolongate the correction back to the finest level. Serial
// callers (model, distmem, krylov) and goroutine-team callers
// (async) both run this body; the Site interface abstracts what differs
// — the row span each executor owns, the barrier between stages, and how
// a smoothing sweep is dispatched.
package engine

import (
	"fmt"

	"asyncmg/internal/op"
)

// Site is one executor of a grid correction: the whole computation for a
// serial caller, or a single thread of a goroutine team. Correction
// calls each stage for the site's span and synchronizes between stages;
// with a team site every teammate runs Correction concurrently and the
// stages interleave exactly as the team-parallel loops they replace.
type Site interface {
	// Span returns the half-open row range [lo, hi) this site owns on
	// the given level.
	Span(level int) (lo, hi int)
	// Sync is a barrier among the sites cooperating on the correction; a
	// no-op for serial execution.
	Sync()
	// Smooth performs one zero-guess smoothing sweep e = Λ_level r over
	// the site's rows, including zeroing e and any synchronization the
	// sweep needs internally.
	Smooth(level int, e, r []float64)
	// CoarseSolve computes e = A_L⁻¹ r on the coarsest level (falling
	// back to a smoothing sweep when no factorization exists).
	CoarseSolve(e, r []float64)
}

// CorrBuffers is the scratch a grid correction runs in. Team callers
// share one CorrBuffers across the team (sites write disjoint spans);
// serial callers own theirs exclusively.
type CorrBuffers struct {
	// Lvl[j] and Lvl2[j] are level-j sized scratch vectors; the
	// restriction cascade descends through Lvl, the prolongation ascends
	// through Lvl2. Only entries 0..k+1 are touched for a grid-k
	// correction.
	Lvl, Lvl2 [][]float64
	// E holds the level-k correction (sized >= the largest level the
	// caller corrects on); Mod the AFACx modified right-hand side.
	E, Mod []float64
}

// Correction computes grid k's additive correction at the finest level
// from the fine-grid residual rfine and returns the buffer holding it
// (fully populated only after every cooperating site returns). method
// must be Multadd or AFACx. The fine residual must not be reused by the
// caller until the correction completes.
//
// Grid k's correction goes up through all k interpolants on its own, not
// coarsest-first as in prolongSum: in the paper's §IV each grid corrects
// independently, so there is no other correction to share that work with.
//
// The level-k correction is scaled by omega before prolongation: the
// additive damping ω_k B_k of the stabilised asynchronous cycle. By
// linearity of the interpolants, scaling at level k equals scaling the
// finest-level output while touching only level-k entries, and the
// elementwise scale is bitwise reproducible for any team size. omega = 1
// skips the scaling pass (and its barrier) entirely, so the undamped path
// is unchanged bit for bit.
func (s *Engine) Correction(method Method, k int, rfine []float64, omega float64, b *CorrBuffers, site Site) []float64 {
	l := s.NumLevels()
	var chain []op.Interp
	switch method {
	case Multadd:
		chain = s.SItp
	case AFACx:
		chain = s.Itp
	default:
		panic(fmt.Sprintf("mg: GridCorrection does not support method %v", method))
	}
	// Restrict the fine residual to level k.
	cur := rfine
	for j := 0; j < k; j++ {
		dst := b.Lvl[j+1]
		lo, hi := site.Span(j + 1)
		chain[j].ApplyTRange(dst, cur, lo, hi)
		site.Sync()
		cur = dst
	}
	e := b.E[:s.LevelSize(k)]
	switch {
	case k == l-1:
		site.CoarseSolve(e, cur)
	case method == Multadd:
		site.Smooth(k, e, cur)
	default: // AFACx V(1/1,0) with the modified right-hand side
		// One sweep on the next-coarser equations from a zero guess.
		rkp1 := b.Lvl[k+1]
		lo, hi := site.Span(k + 1)
		s.Itp[k].ApplyTRange(rkp1, cur, lo, hi)
		site.Sync()
		ec := b.Lvl2[k+1]
		site.Smooth(k+1, ec, rkp1)
		// Modified RHS: cur − A_k·(P ec), reusing Lvl2[k] for P·ec (it is
		// not needed again until the prolongation overwrites it).
		pe := b.Lvl2[k]
		lo, hi = site.Span(k)
		s.Itp[k].ApplyRange(pe, ec, lo, hi)
		site.Sync()
		mod := b.Mod[:s.LevelSize(k)]
		// mod[lo:hi] = (cur − A_k pe)[lo:hi]: the residual-range kernel has
		// the exact summation shape of the raw CSR loop this replaced.
		s.Ops[k].ResidualRange(mod, cur, pe, lo, hi)
		site.Sync()
		site.Smooth(k, e, mod)
	}
	if omega != 1 {
		// Damp this grid's correction over the site's span. Every site
		// reads the same omega (the caller establishes that), so the
		// branch and the barrier count agree across the team.
		lo, hi := site.Span(k)
		ek := e[lo:hi]
		for i := range ek {
			ek[i] *= omega
		}
		site.Sync()
	}
	// Prolongate back to the finest level.
	out := e
	for j := k - 1; j >= 0; j-- {
		dst := b.Lvl2[j]
		lo, hi := site.Span(j)
		chain[j].ApplyRange(dst, out, lo, hi)
		site.Sync()
		out = dst
	}
	return out
}

// serialSite executes a grid correction on the calling goroutine: full
// spans, no barriers, the engine's own per-level smoothers.
type serialSite struct {
	s *Engine
	w *CorrWorkspace
}

func (ss *serialSite) Span(level int) (int, int) { return 0, ss.s.LevelSize(level) }

func (ss *serialSite) Sync() {}

func (ss *serialSite) Smooth(level int, e, r []float64) { ss.s.Smo[level].Apply(e, r) }

func (ss *serialSite) CoarseSolve(e, r []float64) {
	// Mod is free here: the AFACx modified-RHS path never runs on the
	// coarsest grid, the only place CoarseSolve is called.
	ss.s.CoarseSolveScratch(e, r, ss.w.buf.Mod)
}

// CorrWorkspace holds the per-level scratch for single-grid correction
// evaluations (GridCorrection). Not safe for concurrent use. Prefer
// AcquireCorrWorkspace/ReleaseCorrWorkspace, which recycle workspaces
// through a pool.
type CorrWorkspace struct {
	buf  CorrBuffers
	site serialSite
}

// NewCorrWorkspace allocates scratch for GridCorrection calls.
func (s *Engine) NewCorrWorkspace() *CorrWorkspace {
	l := s.NumLevels()
	w := &CorrWorkspace{buf: CorrBuffers{
		Lvl:  make([][]float64, l),
		Lvl2: make([][]float64, l),
	}}
	maxN := 0
	for k := 0; k < l; k++ {
		n := s.LevelSize(k)
		w.buf.Lvl[k] = make([]float64, n)
		w.buf.Lvl2[k] = make([]float64, n)
		if n > maxN {
			maxN = n
		}
	}
	w.buf.E = make([]float64, maxN)
	w.buf.Mod = make([]float64, maxN)
	w.site = serialSite{s: s, w: w}
	return w
}

// GridCorrection computes grid k's additive correction at the finest level
// from the fine-grid residual rfine, damped by omega at level k (1 for
// none), writing it into out: the B_k/C_k operator of the Section III
// models, and the unit of work one grid process performs in a
// distributed-memory implementation. method must be Multadd or AFACx. It
// is also the serial reference the worker-count property tests compare
// the team-parallel damped path against.
func (s *Engine) GridCorrection(method Method, k int, out, rfine []float64, omega float64, w *CorrWorkspace) {
	res := s.Correction(method, k, rfine, omega, &w.buf, &w.site)
	copy(out, res)
}
