// The level steps every cycle body and grid correction is written in, and
// the single implementation of the per-grid correction math (the B_k/C_k
// operators of the paper's Section III): restrict the fine residual to
// grid k, smooth (or coarse-solve, or apply AFACx's modified right-hand
// side), and prolongate the correction back to the finest level. Serial
// callers (the cycles, model, distmem, krylov) and goroutine-team callers
// (async) run the same bodies; the Site interface is what differs: which
// rows a step computes and how the executors synchronize after it.
package engine

import (
	"fmt"

	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// Site is one executor of level steps: the whole computation for a serial
// caller, or one thread of a goroutine team. Each method performs one step
// on the site's rows of level k, the level it writes, then synchronizes so
// that every site may read the step's output: teammates running one body
// concurrently interleave as team-parallel loops with a barrier after each.
type Site interface {
	// Residual computes r = b − A_k x.
	Residual(k int, r, b, x []float64)
	// ApplySub computes y = b − A_k x as the product, then the subtraction
	// (Residual accumulates from b instead): AFACx's modified right-hand
	// side, whose rounding the golden histories pin.
	ApplySub(k int, y, b, x []float64)
	// Restrict computes rc = tᵀ r into level k (t's coarse level).
	Restrict(t op.Interp, k int, rc, r []float64)
	// Prolong computes e = t ec into level k (t's fine level), or
	// e += t ec with add set.
	Prolong(t op.Interp, k int, e, ec []float64, add bool)
	// Smooth performs one zero-guess smoothing sweep e = Λ_k r.
	Smooth(k int, e, r []float64)
	// PostSmooth performs the multiplicative cycle's post-smoothing sweep
	// e ← e + Λ_k (r − A_k e); scratch is level-k scratch.
	PostSmooth(k int, e, r, scratch []float64)
	// CoarseSolve computes e = A_L⁻¹ r on the coarsest level, as
	// CoarseSolveScratch does.
	CoarseSolve(e, r, scratch []float64)
	// Scale computes v ← a·v on level k.
	Scale(k int, a float64, v []float64)
	// Add computes y ← y + x on level k.
	Add(k int, y, x []float64)
}

// serialSite runs each step on the calling goroutine over whole vectors,
// through the sharded kernels and the engine's own smoothers. One pointer
// wide, it converts to a Site without allocating.
type serialSite struct{ s *Engine }

func (ss serialSite) Residual(k int, r, b, x []float64) { ss.s.Ops[k].Residual(r, b, x) }

func (ss serialSite) ApplySub(k int, y, b, x []float64) {
	ss.s.Ops[k].Apply(y, x)
	for i := range y {
		y[i] = b[i] - y[i]
	}
}

func (ss serialSite) Restrict(t op.Interp, _ int, rc, r []float64) { t.ApplyT(rc, r) }

func (ss serialSite) Prolong(t op.Interp, _ int, e, ec []float64, add bool) {
	if add {
		t.ApplyAdd(e, ec)
		return
	}
	t.Apply(e, ec)
}

func (ss serialSite) Smooth(k int, e, r []float64) { ss.s.Smo[k].Apply(e, r) }

func (ss serialSite) PostSmooth(k int, e, r, scratch []float64) { ss.s.Smo[k].Sweep(e, r, scratch) }

func (ss serialSite) CoarseSolve(e, r, scratch []float64) { ss.s.CoarseSolveScratch(e, r, scratch) }

func (ss serialSite) Scale(_ int, a float64, v []float64) { vec.Scale(a, v) }

func (ss serialSite) Add(_ int, y, x []float64) { vec.AxpyPar(1, y, x) }

// CorrWorkspace is the scratch a grid correction runs in. Team callers
// share one across the team (sites write disjoint rows); serial callers
// own theirs exclusively. Prefer AcquireCorrWorkspace/ReleaseCorrWorkspace,
// which recycle workspaces through a pool.
type CorrWorkspace struct {
	// Lvl[j] and Lvl2[j] are level-j sized scratch vectors; the
	// restriction cascade descends through Lvl, the prolongation ascends
	// through Lvl2, and Lvl2[k] holds AFACx's modified right-hand side (or
	// the coarse solve's scratch). Only entries 0..k+1 are touched for a
	// grid-k correction.
	Lvl, Lvl2 [][]float64
	// E holds the level-k correction (sized >= the largest level the
	// caller corrects on).
	E []float64
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
// skips the scaling step (and its barrier) entirely, so the undamped path
// is unchanged bit for bit. Every site must read the same omega.
func (s *Engine) Correction(method Method, k int, rfine []float64, omega float64, b *CorrWorkspace, site Site) []float64 {
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
		site.Restrict(chain[j], j+1, b.Lvl[j+1], cur)
		cur = b.Lvl[j+1]
	}
	e := b.E[:s.LevelSize(k)]
	switch {
	case k == l-1:
		site.CoarseSolve(e, cur, b.Lvl2[k])
	case method == Multadd:
		site.Smooth(k, e, cur)
	default:
		site.Restrict(s.Itp[k], k+1, b.Lvl[k+1], cur)
		s.afacxCorrection(site, k, e, cur, b.Lvl[k+1], b.Lvl2[k+1], b.Lvl2[k])
	}
	if omega != 1 {
		site.Scale(k, omega, e)
	}
	// Prolongate back to the finest level.
	out := e
	for j := k - 1; j >= 0; j-- {
		site.Prolong(chain[j], j, b.Lvl2[j], out, false)
		out = b.Lvl2[j]
	}
	return out
}

// afacxCorrection computes grid k's AFACx correction below the coarsest
// grid from its residual r and the next-coarser residual rc (Algorithm 2):
//
//	ec = Λ_{k+1} rc               (one sweep, zero guess)
//	e  = Λ_k (r − A_k P ec)       (one sweep, zero guess)
//
// By linearity of the stationary smoother, a sweep from the initial guess
// P ec equals P ec plus a sweep from zero on this modified system, so the
// redundant prolongations cancel. ec is level-(k+1) scratch and mod
// level-k scratch; e holds P ec until the last sweep overwrites it.
func (s *Engine) afacxCorrection(site Site, k int, e, r, rc, ec, mod []float64) {
	site.Smooth(k+1, ec, rc)
	site.Prolong(s.Itp[k], k, e, ec, false)
	site.ApplySub(k, mod, r, e)
	site.Smooth(k, e, mod)
}

// RecordCorrection reports one applied correction of grid k to o: the
// smoothing sweeps Correction ran for it (one on grid k, the coarse exact
// solve counting as one, and for AFACx one more on grid k+1) and the
// correction itself with its staleness. Correction records nothing, so
// every caller attributes through here when it applies a correction.
func (s *Engine) RecordCorrection(o *obs.Observer, m Method, k int, staleness int64) {
	if o == nil {
		return
	}
	o.Relaxed(k, 1)
	if m == AFACx && k+1 < s.NumLevels() {
		o.Relaxed(k+1, 1)
	}
	o.Corrected(k, staleness)
}

// NewCorrWorkspace allocates scratch for corrections on every grid.
func (s *Engine) NewCorrWorkspace() *CorrWorkspace {
	l := s.NumLevels()
	w := &CorrWorkspace{Lvl: make([][]float64, l), Lvl2: make([][]float64, l), E: make([]float64, s.LevelSize(0))}
	for k := range w.Lvl {
		w.Lvl[k] = make([]float64, s.LevelSize(k))
		w.Lvl2[k] = make([]float64, s.LevelSize(k))
	}
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
	res := s.Correction(method, k, rfine, omega, w, serialSite{s})
	copy(out, res)
}
