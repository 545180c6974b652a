// The multigrid cycles: one body per cycle family (multiplicative,
// additive, AFACx), every entry point a choice of its parameters, each
// written in Site steps. On the serial site every step is one sharded
// operator or interpolant call, bitwise-identical to its serial form, so
// residual histories do not depend on the worker count. Solve keeps the
// serial Norm2 for bit-stable histories.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// Cycle runs one V-cycle of the chosen method, updating x in place.
func (s *Engine) Cycle(m Method, x, b []float64, w *Workspace) {
	s.cycle(m, x, b, w, false, false)
}

// cycle is the one serial method dispatch, and the one place a serial
// cycle is reported to the engine's observer. zero says x is the zero
// vector on entry: the fine residual b − A·0 is then b itself and the
// corrected iterate 0 + e₀ is e₀, so the cycle copies b in and e₀ out
// instead of computing either (only the sign of a zero entry can differ).
// symmetrized selects Multadd's symmetrized smoother; the other methods
// ignore it.
func (s *Engine) cycle(m Method, x, b []float64, w *Workspace, zero, symmetrized bool) {
	switch m {
	case Mult:
		s.multCycle(serialSite{s}, x, b, w, zero)
	case Multadd:
		s.additiveCycle(x, b, w, s.SItp, symmetrized, 1, zero)
	case AFACx:
		s.afacxCycle(x, b, w, 1, zero)
	case BPX:
		s.additiveCycle(x, b, w, s.Itp, false, 1, zero)
	default:
		panic(fmt.Sprintf("mg: unknown method %d", m))
	}
	s.RecordCycle(s.obs, m, m == Multadd && symmetrized)
}

// RecordCycle reports one synchronous V-cycle of method m to o: the
// smoothing sweeps it ran on every grid (the coarsest grid's exact solve
// counts as one; symmetrized is Multadd's two-sweep smoother) and one
// correction per grid at staleness 0, since a synchronous cycle corrects
// every grid once from a fresh residual. The cycle bodies record nothing,
// so a team running one body on many sites reports it once, here.
func (s *Engine) RecordCycle(o *obs.Observer, m Method, symmetrized bool) {
	if o == nil {
		return
	}
	l := s.NumLevels()
	for k := 0; k < l; k++ {
		// Mult pre- and post-smooths below the coarsest grid, and an
		// AFACx grid also sweeps as the next-finer grid's helper.
		sweeps := int64(1)
		if k < l-1 && (m == Mult || symmetrized) || m == AFACx && k > 0 {
			sweeps = 2
		}
		o.Relaxed(k, sweeps)
		o.Corrected(k, 0)
	}
}

// ---- the multiplicative family ----

// MultCycle runs one classical multiplicative V(1,1)-cycle with its level
// steps executed by site, updating x in place. A goroutine team runs it by
// calling MultCycle concurrently, one site per member, over one shared
// workspace; every site must span the whole hierarchy. It reports nothing
// to any observer (see RecordCycle).
func (s *Engine) MultCycle(site Site, x, b []float64, w *Workspace) {
	s.multCycle(site, x, b, w, false)
}

// multCycle performs one classical multiplicative V(1,1)-cycle
// (Algorithm 1): pre-smooth and restrict down the hierarchy, exact-solve on
// the coarsest grid, prolong and post-smooth back up, then correct x. The
// zero-guess form copies whole vectors, so only the serial site takes it.
func (s *Engine) multCycle(site Site, x, b []float64, w *Workspace, zero bool) {
	l := s.NumLevels()
	fineResidual(site, w, x, b, zero)
	// Downward sweep: e_k = Λ_k r_k (one pre-smoothing sweep from a zero
	// guess), then r_{k+1} = Pᵀ (r_k − A_k e_k).
	for k := 0; k < l-1; k++ {
		site.Smooth(k, w.e[k], w.r[k])
		site.Residual(k, w.tmp[k], w.r[k], w.e[k])
		site.Restrict(s.Itp[k], k+1, w.r[k+1], w.tmp[k])
	}
	site.CoarseSolve(w.e[l-1], w.r[l-1], w.tmp[l-1])
	// Upward sweep: e_k += P e_{k+1}, then one post-smoothing sweep
	// e_k += Λ_k (r_k − A_k e_k).
	for k := l - 2; k >= 0; k-- {
		site.Prolong(s.Itp[k], k, w.e[k], w.e[k+1], true)
		site.PostSmooth(k, w.e[k], w.r[k], w.tmp[k])
	}
	correct(site, x, w.e[0], zero)
}

// fineResidual forms w.r[0] = b − A x, which from a zero x is b.
func fineResidual(site Site, w *Workspace, x, b []float64, zero bool) {
	if zero {
		copy(w.r[0], b)
		return
	}
	site.Residual(0, w.r[0], b, x)
}

// correct adds the fine correction e into x, which from a zero x is e.
func correct(site Site, x, e []float64, zero bool) {
	if zero {
		copy(x, e)
		return
	}
	site.Add(0, x, e)
}

// ---- the additive family ----

// additiveCycle is the one additive body x ← x + ω Σ_k Π_k Λ_k Π_kᵀ r:
// chain holds the two-level interpolants Π_k is composed from, the
// smoothed ones for Multadd (Equation 2, Π_k = P̄⁰_k) and the plain ones
// for BPX (Equation 1, Π_k = P⁰_k; as a standalone solver BPX
// over-corrects and diverges, so it serves the ablations and the
// preconditioner). symmetrized selects Λ_k = M̄_k⁻¹ = M⁻ᵀ(M + Mᵀ − A)M⁻¹
// (two sweeps) over the single zero-guess sweep Λ_k = M_k⁻¹: per Section
// II.B.1 of the paper (Vassilevski & Yang) that Multadd is the symmetric
// multiplicative V(1,1)-cycle, and for the diagonal smoothers (M = Mᵀ,
// the only ones smoother.ApplySymmetrized supports) it reproduces Mult up
// to rounding. Λ_ℓ = A_ℓ⁻¹ on the coarsest grid. Every grid's correction
// is scaled by omega at its own level — the deterministic sequential
// reference for the asynchronous damped path — and the restricted
// residuals cascade down once while prolongSum sums the corrections
// coarsest-first, L−1 interpolant applies in all.
func (s *Engine) additiveCycle(x, b []float64, w *Workspace, chain []op.Interp, symmetrized bool, omega float64, zero bool) {
	site := serialSite{s}
	l := s.NumLevels()
	s.restrictCascade(site, w, chain, x, b, zero)
	for k := 0; k < l; k++ {
		// Grid k's correction at its own level.
		switch {
		case k == l-1:
			site.CoarseSolve(w.e[k], w.r[k], w.tmp[k])
		case symmetrized:
			s.Smo[k].ApplySymmetrized(w.e[k], w.r[k], w.tmp[k])
		default:
			site.Smooth(k, w.e[k], w.r[k])
		}
	}
	s.prolongSum(site, x, w, chain, omega, zero)
}

// restrictCascade forms the fine residual w.r[0] = b − A x and restricts it
// once down the chain into w.r[1:].
func (s *Engine) restrictCascade(site Site, w *Workspace, chain []op.Interp, x, b []float64, zero bool) {
	fineResidual(site, w, x, b, zero)
	for k, t := range chain {
		site.Restrict(t, k+1, w.r[k+1], w.r[k])
	}
}

// prolongSum adds Σ_k Π_k ω e_k into x for the level corrections in w.e,
// coarsest first (e_k ← ω e_k + chain[k] e_{k+1}, then x += e_0): the
// composite interpolants in nested form, L−1 applies instead of L(L−1)/2.
// omega = 1 skips the scaling passes. It overwrites w.e.
func (s *Engine) prolongSum(site Site, x []float64, w *Workspace, chain []op.Interp, omega float64, zero bool) {
	for k := len(chain); k >= 0; k-- {
		if omega != 1 {
			site.Scale(k, omega, w.e[k])
		}
		if k < len(chain) {
			site.Prolong(chain[k], k, w.e[k], w.e[k+1], true)
		}
	}
	correct(site, x, w.e[0], zero)
}

// afacxCycle performs one AFACx V(1/1,0)-cycle (Algorithm 2): every grid
// k < ℓ contributes x += P⁰_k ẽ_k with ẽ_k from afacxCorrection's modified
// right-hand side, and the coarsest grid x += P⁰_ℓ A_ℓ⁻¹ r_ℓ. Restriction
// uses the plain interpolants. Every grid's final correction ẽ_k is scaled
// by omega at its own level (the next-coarser helper sweep inside the
// modified right-hand side stays undamped, matching the asynchronous
// Correction). It shares the additive body's restriction cascade and
// prolongSum, which sums the ẽ_k left in w.e.
func (s *Engine) afacxCycle(x, b []float64, w *Workspace, omega float64, zero bool) {
	site := serialSite{s}
	l := s.NumLevels()
	s.restrictCascade(site, w, s.Itp, x, b, zero)
	for k := 0; k < l-1; k++ {
		s.afacxCorrection(site, k, w.e[k], w.r[k], w.r[k+1], w.tmp[k+1], w.tmp[k])
	}
	site.CoarseSolve(w.e[l-1], w.r[l-1], w.tmp[l-1])
	s.prolongSum(site, x, w, s.Itp, omega, zero)
}

// ---- solve loops ----

// Solve runs tmax V-cycles of method m starting from x = 0 and returns the
// final iterate together with the relative residual 2-norm history
// (‖r‖₂/‖b‖₂ after each cycle, hist[0] being 1 before any cycle). Solve
// stops early if the iterate becomes non-finite (divergence). The history
// uses the serial Norm2, so it is bit-stable regardless of the parallel
// kernel configuration.
func (s *Engine) Solve(m Method, b []float64, tmax int) (x []float64, hist []float64) {
	x, hist, _ = s.SolveCtx(context.Background(), m, b, tmax)
	return x, hist
}

// SolveCtx is Solve with cancellation: ctx is checked at every cycle
// boundary, and when it is cancelled (or its deadline passes) the solve
// stops and returns the partial iterate and history together with ctx's
// error. The iterate and history are bitwise-identical to Solve's for the
// cycles that did run.
func (s *Engine) SolveCtx(ctx context.Context, m Method, b []float64, tmax int) (x []float64, hist []float64, err error) {
	return s.solve(ctx, b, tmax, func(x []float64, w *Workspace) { s.Cycle(m, x, b, w) })
}

// SolveDamped runs tmax uniformly damped additive V-cycles of method m
// (Multadd or AFACx) from x = 0 and returns the iterate and relative
// residual history, exactly as Solve does. It is the deterministic
// sequential reference the damped golden tests pin: the asynchronous
// damped path applies the same ω_k scaling per correction, but its
// histories depend on scheduling while these do not. omega = 1 matches
// Solve bit for bit.
func (s *Engine) SolveDamped(m Method, b []float64, tmax int, omega float64) (x []float64, hist []float64) {
	if m != Multadd && m != AFACx {
		panic(fmt.Sprintf("mg: SolveDamped supports Multadd and AFACx, got %v", m))
	}
	x, hist, _ = s.solve(context.Background(), b, tmax, func(x []float64, w *Workspace) {
		if m == Multadd {
			s.additiveCycle(x, b, w, s.SItp, false, omega, false)
		} else {
			s.afacxCycle(x, b, w, omega, false)
		}
		s.RecordCycle(s.obs, m, false)
	})
	return x, hist
}

// solve is the one cycling loop: from x = 0, up to tmax calls of cycle,
// each followed by a residual-history sample.
func (s *Engine) solve(ctx context.Context, b []float64, tmax int, cycle func(x []float64, w *Workspace)) (x []float64, hist []float64, err error) {
	n := s.LevelSize(0)
	x = make([]float64, n)
	w := s.AcquireWorkspace()
	defer s.ReleaseWorkspace(w)
	r := make([]float64, n)
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	hist = make([]float64, 1, tmax+1)
	hist[0] = 1
	for t := 0; t < tmax; t++ {
		if err := ctx.Err(); err != nil {
			return x, hist, err
		}
		cycle(x, w)
		s.Ops[0].Residual(r, b, x)
		rel := vec.Norm2(r) / nb
		hist = append(hist, rel)
		s.obs.CycleDone(rel)
		if vec.HasNonFinite(x) {
			break
		}
	}
	return x, hist, nil
}

// PreconditionCycle applies one cycle of method m from a zero initial
// guess: z = B r, the multigrid-preconditioner application of the Krylov
// subsystem, in the cycle's zero-guess form: r itself is restricted (no
// r − A·0) and the fine correction is written into z (z is not zeroed
// first, nor added to), with the entries of zeroing z and running Cycle
// up to the sign of a zero. symmetrized selects the symmetrized smoother
// M̄_k⁻¹ for Multadd and is ignored by the other methods. For symmetric
// A with diagonal smoothers, Mult (the symmetric V(1,1)-cycle), BPX, and
// the plain and symmetrized additive Multadd all yield a symmetric
// positive definite B, as PCG requires; AFACx does not.
func (s *Engine) PreconditionCycle(m Method, symmetrized bool, z, r []float64, w *Workspace) {
	s.cycle(m, z, r, w, true, symmetrized)
}

// ConvergenceFactor estimates the asymptotic convergence factor ρ of one
// V-cycle of the chosen method by power iteration on the homogeneous
// problem: starting from a random error vector, it applies `iters` cycles
// to A x = 0 and reports the geometric-mean error reduction per cycle over
// the second half of the run (the first half burns in the dominant error
// mode). A factor below 1 means the method converges as a solver; BPX's
// factor exceeds 1 — the over-correction the paper describes — while
// Multadd's and AFACx's stay below 1.
func (s *Engine) ConvergenceFactor(m Method, iters int, seed int64) float64 {
	if iters < 4 {
		iters = 4
	}
	n := s.LevelSize(0)
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	w := s.AcquireWorkspace()
	defer s.ReleaseWorkspace(w)
	// Burn-in: expose the dominant mode.
	half := iters / 2
	for t := 0; t < half; t++ {
		s.Cycle(m, x, b, w)
		// Renormalize to avoid under/overflow during long runs.
		if nrm := vec.Norm2(x); nrm > 0 && (nrm > 1e100 || nrm < 1e-100) {
			vec.Scale(1/nrm, x)
		}
	}
	start := vec.Norm2(x)
	if start == 0 {
		return 0
	}
	for t := half; t < iters; t++ {
		s.Cycle(m, x, b, w)
	}
	end := vec.Norm2(x)
	if end == 0 {
		return 0
	}
	return math.Pow(end/start, 1/float64(iters-half))
}
