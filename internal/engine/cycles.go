// The multigrid cycles: one body per cycle family (multiplicative,
// additive, AFACx), every entry point a choice of its parameters. The
// cycles run on the fused/parallel kernels behind package op: the V-cycle
// down-leg collapses pre-smooth, residual and restriction into one matrix
// sweep for diagonal smoothers, and every SpMV/axpy shards onto the par
// worker pool for large levels.
// All kernel substitutions are bitwise-identical to the plain serial
// sequence, so residual histories are unchanged from the pre-engine
// solvers; only reductions (norms) could differ, and Solve keeps the
// serial Norm2 for bit-stable histories.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// Cycle runs one V-cycle of the chosen method, updating x in place.
func (s *Engine) Cycle(m Method, x, b []float64, w *Workspace) {
	switch m {
	case Mult:
		s.MultCycle(x, b, w)
	case Multadd:
		s.MultaddCycle(x, b, w)
	case AFACx:
		s.AFACxCycle(x, b, w)
	case BPX:
		s.BPXCycle(x, b, w)
	default:
		panic(fmt.Sprintf("mg: unknown method %d", m))
	}
}

// ---- the multiplicative family ----

// MultCycle performs one classical multiplicative V(1,1)-cycle
// (Algorithm 1): pre-smooth and restrict down the hierarchy, exact-solve on
// the coarsest grid, prolong and post-smooth back up, then correct x.
func (s *Engine) MultCycle(x, b []float64, w *Workspace) { s.multCycle(x, b, w, 1, 1) }

// MultCycleSweeps performs one multiplicative V(s1,s2)-cycle: s1
// pre-smoothing sweeps on the way down and s2 post-smoothing sweeps on the
// way up (the paper's experiments all use V(1,1); extra sweeps trade work
// for per-cycle convergence, the standard knob real AMG deployments tune).
// V(0,1) is the sawtooth cycle of the "chaotic cycle" method of Hawkes et
// al. (reference [11] of the paper): residuals are restricted directly on
// the way down, corrections prolongated and post-smoothed on the way up.
func (s *Engine) MultCycleSweeps(x, b []float64, w *Workspace, s1, s2 int) {
	s.multCycle(x, b, w, s1, s2)
}

// multCycle is the one multiplicative body, V(s1,s2).
func (s *Engine) multCycle(x, b []float64, w *Workspace, s1, s2 int) {
	if s1 < 0 || s2 < 0 || s1+s2 == 0 {
		panic(fmt.Sprintf("mg: V(%d,%d) needs non-negative sweep counts with at least one sweep", s1, s2))
	}
	l := s.NumLevels()
	s.Ops[0].Residual(w.r[0], b, x)
	// Downward sweep: r_{k+1} = Pᵀ (r_k − A_k e_k) after s1 pre-smoothing
	// sweeps from a zero guess.
	for k := 0; k < l-1; k++ {
		switch id := s.Smo[k].InvDiag(); {
		case s1 == 0:
			s.Itp[k].ApplyT(w.r[k+1], w.r[k])
			continue
		case s1 == 1 && id != nil:
			// One diagonal sweep: the pre-smooth, the post-smoothing
			// residual and the restriction fuse into one matrix sweep.
			op.FusedJacobiResidualRestrict(s.Ops[k], s.Itp[k], w.e[k], w.r[k+1], id, w.r[k], w.tmp[k])
		default:
			vec.Zero(w.e[k])
			s.smoothSweeps(k, w.e[k], w.r[k], w.tmp[k], s1)
			op.FusedResidualRestrict(s.Ops[k], s.Itp[k], w.r[k+1], w.r[k], w.e[k], w.tmp[k])
		}
		s.obs.Relaxed(k, int64(s1))
	}
	s.CoarseSolveScratch(w.e[l-1], w.r[l-1], w.tmp[l-1])
	s.obs.Relaxed(l-1, 1)
	// Upward sweep: e_k += P e_{k+1} (e_k is unset without pre-smoothing),
	// then s2 post-smoothing sweeps e_k += Λ_k (r_k − A_k e_k).
	for k := l - 2; k >= 0; k-- {
		if s1 == 0 {
			s.Itp[k].Apply(w.e[k], w.e[k+1])
		} else {
			s.Itp[k].ApplyAdd(w.e[k], w.e[k+1])
		}
		for t := 0; t < s2; t++ {
			s.Smo[k].Sweep(w.e[k], w.r[k], w.tmp[k])
		}
		s.obs.Relaxed(k, int64(s2))
	}
	vec.AxpyPar(1, x, w.e[0])
	s.countCorrections()
}

// ---- the additive family ----

// MultaddCycle performs one additive Multadd V-cycle (Equation 2):
//
//	x ← x + Σ_k P̄⁰_k Λ_k (P̄⁰_k)ᵀ r,  Λ_ℓ = A_ℓ⁻¹.
//
// The multilevel smoothed interpolants are applied factor by factor: the
// restricted residuals cascade down once, and the grid corrections are
// summed coarsest-first on the way up, applying each interpolant once.
func (s *Engine) MultaddCycle(x, b []float64, w *Workspace) {
	s.additiveCycle(x, b, w, s.SItp, false, 1)
}

// MultaddCycleSymmetrized performs one Multadd V-cycle with the symmetrized
// smoother Λ_k = M̄_k⁻¹ = M⁻ᵀ(M + Mᵀ − A)M⁻¹ in place of the single-sweep
// Λ_k = M_k⁻¹. Per Section II.B.1 of the paper (Vassilevski & Yang), this
// additive cycle is mathematically equivalent to the symmetric
// multiplicative V(1,1)-cycle — for the diagonal smoothers (M = Mᵀ) it
// reproduces MultCycle exactly, bit-for-bit up to floating-point rounding.
// Only diagonal smoothers are supported (see smoother.ApplySymmetrized).
func (s *Engine) MultaddCycleSymmetrized(x, b []float64, w *Workspace) {
	s.additiveCycle(x, b, w, s.SItp, true, 1)
}

// BPXCycle performs one BPX update x ← x + Σ_k P⁰_k Λ_k (P⁰_k)ᵀ r
// (Equation 1). As a standalone solver this over-corrects and diverges; it
// is exposed for the ablation benchmarks and for use as a preconditioner.
func (s *Engine) BPXCycle(x, b []float64, w *Workspace) {
	s.additiveCycle(x, b, w, s.Itp, false, 1)
}

// additiveCycle is the one additive body x ← x + ω Σ_k Π_k Λ_k Π_kᵀ r:
// chain holds the two-level interpolants Π_k is composed from (smoothed
// for Multadd, plain for BPX), and symmetrized selects Λ_k = M̄_k⁻¹ (two
// sweeps) over the single zero-guess sweep Λ_k = M_k⁻¹. Every grid's
// correction is scaled by omega at its own level — the deterministic
// sequential reference for the asynchronous damped path — and prolongSum
// adds them into x with L−1 interpolant applies in all.
func (s *Engine) additiveCycle(x, b []float64, w *Workspace, chain []op.Interp, symmetrized bool, omega float64) {
	l := s.NumLevels()
	s.restrictCascade(w, chain, x, b)
	for k := 0; k < l; k++ {
		// Grid k's correction at its own level.
		switch {
		case k == l-1:
			s.CoarseSolveScratch(w.e[k], w.r[k], w.tmp[k])
			s.obs.Relaxed(k, 1)
		case symmetrized:
			s.Smo[k].ApplySymmetrized(w.e[k], w.r[k], w.tmp[k])
			s.obs.Relaxed(k, 2)
		default:
			vec.Zero(w.e[k])
			s.Smo[k].Apply(w.e[k], w.r[k])
			s.obs.Relaxed(k, 1)
		}
	}
	s.prolongSum(x, w, chain, omega)
	s.countCorrections()
}

// restrictCascade forms the fine residual w.r[0] = b − A x and restricts it
// once down the chain into w.r[1:].
func (s *Engine) restrictCascade(w *Workspace, chain []op.Interp, x, b []float64) {
	s.Ops[0].Residual(w.r[0], b, x)
	for k, t := range chain {
		t.ApplyT(w.r[k+1], w.r[k])
	}
}

// prolongSum adds Σ_k Π_k ω e_k into x for the level corrections in w.e,
// coarsest first (e_k ← ω e_k + chain[k] e_{k+1}, then x += e_0): the
// composite interpolants in nested form, L−1 applies instead of L(L−1)/2.
// omega = 1 skips the scaling passes. It overwrites w.e.
func (s *Engine) prolongSum(x []float64, w *Workspace, chain []op.Interp, omega float64) {
	for k := len(chain); k >= 0; k-- {
		if omega != 1 {
			vec.Scale(omega, w.e[k])
		}
		if k < len(chain) {
			chain[k].ApplyAdd(w.e[k], w.e[k+1])
		}
	}
	vec.AxpyPar(1, x, w.e[0])
}

// countCorrections records one applied correction per grid: a synchronous
// cycle corrects every grid once from a fresh residual, so the staleness
// is 0 by construction.
func (s *Engine) countCorrections() {
	if s.obs == nil {
		return
	}
	for k := 0; k < s.NumLevels(); k++ {
		s.obs.Corrected(k, 0)
	}
}

// AFACxCycle performs one AFACx V(1/1,0)-cycle (Algorithm 2). For each grid
// k < ℓ the correction is computed with the modified right-hand side so the
// redundant prolongations cancel:
//
//	e_{k+1} = Λ_{k+1} r_{k+1}            (one sweep, zero guess)
//	ẽ_k     = Λ_k (r_k − A_k P e_{k+1})  (one sweep, zero guess)
//	x      += P⁰_k ẽ_k
//
// and the coarsest grid contributes x += P⁰_ℓ A_ℓ⁻¹ r_ℓ. Restriction uses
// the plain interpolants.
func (s *Engine) AFACxCycle(x, b []float64, w *Workspace) { s.afacxCycle(x, b, w, 1, 1, 1) }

// AFACxCycleSweeps performs one AFACx V(s1/s2,0)-cycle: s1 smoothing sweeps
// compute each grid's own correction and s2 sweeps compute the next-coarser
// correction that is subtracted to prevent over-correction. The paper
// evaluates V(1/1,0); more sweeps trade work for per-cycle convergence.
func (s *Engine) AFACxCycleSweeps(x, b []float64, w *Workspace, s1, s2 int) {
	s.afacxCycle(x, b, w, s1, s2, 1)
}

// afacxCycle is AFACxCycleSweeps with every grid's final correction ẽ_k
// scaled by omega at its own level (the next-coarser helper sweep e_{k+1}
// inside the modified right-hand side stays undamped, matching the
// asynchronous Correction). It shares the additive body's restriction
// cascade and prolongSum: ẽ_k is left in w.e[k], whose scratch use for
// P e_{k+1} comes before ẽ_k is written.
func (s *Engine) afacxCycle(x, b []float64, w *Workspace, s1, s2 int, omega float64) {
	if s1 < 1 || s2 < 1 {
		panic(fmt.Sprintf("mg: AFACx sweep counts must be >= 1, got (%d/%d)", s1, s2))
	}
	l := s.NumLevels()
	s.restrictCascade(w, s.Itp, x, b)
	for k := 0; k < l; k++ {
		if k == l-1 {
			s.CoarseSolveScratch(w.e[k], w.r[k], w.tmp[k])
			s.obs.Relaxed(k, 1)
		} else {
			// s2 smoothing sweeps on the next-coarser equations from zero.
			ec := w.tmp[k+1]
			vec.Zero(ec)
			s.smoothSweeps(k+1, ec, w.r[k+1], w.e[k+1], s2)
			s.obs.Relaxed(k+1, int64(s2))
			// Modified right-hand side: r_k − A_k P e_{k+1}. (By linearity
			// of the stationary smoother, s1 sweeps from the initial guess
			// P e_{k+1} equal P e_{k+1} plus s1 sweeps from zero on this
			// modified system, so the redundant prolongations cancel.)
			pe := w.e[k] // reuse e_k as scratch for P e_{k+1}
			s.Itp[k].Apply(pe, ec)
			mod := w.tmp[k]
			// Apply-then-subtract, not Residual: the subtraction order here
			// is the one the golden histories pin.
			s.Ops[k].Apply(mod, pe)
			for i := range mod {
				mod[i] = w.r[k][i] - mod[i]
			}
			vec.Zero(w.e[k])
			// w.r[k] is free from here on (the restriction cascade is done
			// and no later grid reads it), so it serves as sweep scratch —
			// mod aliases w.tmp[k] and must not be clobbered.
			s.smoothSweeps(k, w.e[k], mod, w.r[k], s1)
			s.obs.Relaxed(k, int64(s1))
		}
	}
	s.prolongSum(x, w, s.Itp, omega)
	s.countCorrections()
}

// smoothSweeps applies `sweeps` smoothing sweeps on level k to A e = r with
// the current contents of e as the initial guess (callers zero e for a
// zero-guess solve). scratch must be a level-k sized buffer distinct from e
// and r.
func (s *Engine) smoothSweeps(k int, e, r, scratch []float64, sweeps int) {
	s.Smo[k].Apply(e, r) // first sweep from zero guess
	for t := 1; t < sweeps; t++ {
		s.Smo[k].Sweep(e, r, scratch)
	}
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
	var cycle func(x []float64, w *Workspace)
	switch m {
	case Multadd:
		cycle = func(x []float64, w *Workspace) { s.additiveCycle(x, b, w, s.SItp, false, omega) }
	case AFACx:
		cycle = func(x []float64, w *Workspace) { s.afacxCycle(x, b, w, 1, 1, omega) }
	default:
		panic(fmt.Sprintf("mg: SolveDamped supports Multadd and AFACx, got %v", m))
	}
	x, hist, _ = s.solve(context.Background(), b, tmax, cycle)
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
// subsystem. For symmetric A with diagonal smoothers, Mult (the symmetric
// V(1,1)-cycle), BPX, and the plain additive Multadd all yield a symmetric
// positive definite B, as PCG requires; AFACx does not.
func (s *Engine) PreconditionCycle(m Method, z, r []float64, w *Workspace) {
	vec.Zero(z)
	s.Cycle(m, z, r, w)
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
