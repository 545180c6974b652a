// Package krylov is the AMG-preconditioned Krylov subsystem: operator-
// generic PCG (symmetric positive definite systems) and FGMRES(m)
// (non-symmetric systems, flexible preconditioning) plus a multi-RHS block
// PCG that advances k packed solves in lockstep through the engine's block
// cycle path. Solvers run on the op.Operator abstraction, so matrix-free
// stencil fine levels and float32 coarse hierarchies precondition without
// ever materializing CSR.
//
// The paper notes that BPX "is typically used as a preconditioner because
// adding the corrections over-corrects x"; this package provides that
// proper usage and, beyond the paper, the AMGCL-style production mode:
// one cached multigrid setup amortized as the preconditioner of many
// Krylov solves.
//
// Determinism and allocation contract: elementwise vector updates run on
// the sharded kernels (bitwise-identical to serial at any worker count)
// while the scalar reductions use the serial vec.Dot/vec.Norm2, so
// residual histories are bit-stable across worker counts. All iteration
// scratch cycles through a package pool; reusing Options.X and
// Options.History makes repeated same-size solves allocation-free
// (AllocsPerRun-enforced).
package krylov

import (
	"errors"
	"sync"

	"asyncmg/internal/engine"
	"asyncmg/internal/obs"
	"asyncmg/internal/vec"
)

// Preconditioner applies z = M⁻¹ r.
type Preconditioner interface {
	// Precondition computes z = M⁻¹ r. z and r have the system size and
	// must not alias.
	Precondition(z, r []float64)
}

// Identity is the trivial preconditioner (plain CG / GMRES).
type Identity struct{}

// Precondition copies r into z.
func (Identity) Precondition(z, r []float64) { copy(z, r) }

// MGPreconditioner applies one V-cycle of a multigrid method from a zero
// initial guess as the preconditioner: z = B r where B is the cycle's
// error propagation operator applied to the residual. For PCG to converge,
// B must be symmetric positive definite; for symmetric A with diagonal
// smoothers that holds for BPX, the plain additive Multadd, the
// symmetrized Multadd, and the symmetric V(1,1)-cycle of Mult — but not
// AFACx. FGMRES tolerates any of them (flexible preconditioning makes no
// symmetry or constancy assumption).
type MGPreconditioner struct {
	Setup *engine.Engine
	// Method selects the cycle; engine.BPX is the classical choice.
	Method engine.Method
	// Symmetrized uses MultaddCycleSymmetrized when Method == engine.Multadd,
	// which is SPD for diagonal smoothers (required for PCG theory).
	Symmetrized bool
	ws          *engine.Workspace
}

// NewMGPreconditioner builds a one-cycle multigrid preconditioner. The
// cycle workspace comes from the setup's pool, so building (and
// discarding) preconditioners on one setup reuses scratch.
func NewMGPreconditioner(s *engine.Engine, method engine.Method) *MGPreconditioner {
	return &MGPreconditioner{Setup: s, Method: method, ws: s.AcquireWorkspace()}
}

// Release returns the preconditioner's cycle workspace to the setup's
// pool. The preconditioner must not be used afterwards.
func (p *MGPreconditioner) Release() {
	if p.ws != nil {
		p.Setup.ReleaseWorkspace(p.ws)
		p.ws = nil
	}
}

// Precondition runs one cycle on A z = r from z = 0.
func (p *MGPreconditioner) Precondition(z, r []float64) {
	if p.Symmetrized && p.Method == engine.Multadd {
		vec.Zero(z)
		p.Setup.MultaddCycleSymmetrized(z, r, p.ws)
		return
	}
	p.Setup.PreconditionCycle(p.Method, z, r, p.ws)
}

// Options configures a Krylov solve.
type Options struct {
	// Tol is the relative-residual stopping tolerance.
	Tol float64
	// MaxIter caps the iteration count (for FGMRES: total iterations
	// across restarts).
	MaxIter int
	// Restart is the FGMRES restart length m (ignored by PCG); 0 means
	// DefaultRestart.
	Restart int
	// M is the preconditioner; nil means unpreconditioned.
	M Preconditioner
	// Observer, when non-nil, records one iteration event with the
	// relative residual per Krylov iteration plus solve/breakdown
	// counters. Nil disables instrumentation.
	Observer *obs.Observer
	// X, when non-nil, must have the system size; the solve writes the
	// iterate into it and Result.X aliases it. Nil allocates.
	X []float64
	// History, when non-nil, backs the residual history (re-sliced to
	// zero length); give it capacity MaxIter+1 to avoid growth. Nil
	// allocates.
	History []float64
}

// DefaultRestart is the FGMRES restart length when Options.Restart is 0.
const DefaultRestart = 30

// DefaultOptions returns Tol 1e-9, MaxIter 1000, no preconditioner.
func DefaultOptions() Options { return Options{Tol: 1e-9, MaxIter: 1000} }

// Result reports a Krylov solve.
type Result struct {
	X          []float64
	Iterations int
	RelRes     float64
	// History holds ‖r‖₂/‖b‖₂ per iteration (History[0] == 1).
	History   []float64
	Converged bool
}

// ErrBreakdown is returned when PCG encounters a non-positive or
// non-finite inner product, which signals an indefinite operator or
// preconditioner, or when FGMRES hits a zero pivot.
var ErrBreakdown = errors.New("krylov: breakdown (operator or preconditioner not SPD / singular projection)")

// ---- pooled iteration scratch ----

// scratch holds one solve's working vectors, recycled through a package
// pool. Slices grow on demand and keep their capacity across solves, so
// the steady state of repeated same-size solves allocates nothing.
type scratch struct {
	r, z, p, ap  []float64 // PCG
	v, zv        [][]float64
	h            []float64 // packed Hessenberg, column-major (m+1) rows
	cs, sn, g, y []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (s *scratch) ensurePCG(n int) {
	s.r = grow(s.r, n)
	s.z = grow(s.z, n)
	s.p = grow(s.p, n)
	s.ap = grow(s.ap, n)
}

func (s *scratch) ensureFGMRES(n, m int) {
	s.r = grow(s.r, n)
	if len(s.v) < m+1 {
		v := make([][]float64, m+1)
		copy(v, s.v)
		s.v = v
	}
	for i := 0; i <= m; i++ {
		s.v[i] = grow(s.v[i], n)
	}
	if len(s.zv) < m {
		zv := make([][]float64, m)
		copy(zv, s.zv)
		s.zv = zv
	}
	for i := 0; i < m; i++ {
		s.zv[i] = grow(s.zv[i], n)
	}
	s.h = grow(s.h, (m+1)*m)
	s.cs = grow(s.cs, m)
	s.sn = grow(s.sn, m)
	s.g = grow(s.g, m+1)
	s.y = grow(s.y, m)
}

func acquireScratch() *scratch  { return scratchPool.Get().(*scratch) }
func releaseScratch(s *scratch) { scratchPool.Put(s) }
