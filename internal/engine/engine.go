// Package engine is the shared multigrid cycle engine: it owns the
// hierarchy view (each level's operator and interpolant in the storage
// precision the hierarchy asks for, its smoother, and Multadd's smoothed
// interpolant built from that smoother's own M⁻¹; the smoothers hold the
// diagonals and row norms, which the engine does not cache beside them),
// pooled per-level workspaces, and the single implementation
// of the cycles and of the per-grid correction math that the synchronous
// solvers, the goroutine-team asynchronous runtime (package async), the
// sequential §III models (package model), the Krylov preconditioners
// (package krylov) and the distributed-memory simulation (package
// distmem) all consume.
//
// Hot paths are allocation-free in the steady state: workspaces are
// recycled through sync.Pools, the coarse LU solve uses caller-provided
// scratch, and the sparse/vec kernels dispatch onto the persistent
// worker pool of package par.
package engine

import (
	"fmt"
	"sync"

	"asyncmg/internal/amg"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Method selects a multigrid algorithm.
type Method int

const (
	// Mult is the classical multiplicative V(1,1)-cycle.
	Mult Method = iota
	// Multadd is the additive variant of Mult (Equation 2).
	Multadd
	// AFACx is the asynchronous fast adaptive composite grid method with
	// smoothing and full refinement.
	AFACx
	// BPX is the Bramble-Pasciak-Xu additive method (Equation 1); it
	// over-corrects and diverges as a solver, and is included as the
	// baseline that motivates the convergent additive methods.
	BPX
)

func (m Method) String() string {
	switch m {
	case Mult:
		return "mult"
	case Multadd:
		return "multadd"
	case AFACx:
		return "afacx"
	case BPX:
		return "bpx"
	}
	return "unknown"
}

// Engine bundles everything the cycles need: the AMG hierarchy, its
// per-level operator and interpolant views, per-level smoothers and the
// smoothed interpolants of Multadd.
type Engine struct {
	H *amg.Hierarchy
	// Smo[k] smooths on level k. The coarsest level also has a smoother
	// (AFACx smooths there; Mult/Multadd use the exact solve when
	// available).
	Smo []*smoother.S
	// Ops[k] is the operator view of level k the cycles run on: the
	// hierarchy's own Levels[k].Op (a float64 CSR adapter or a class
	// stencil), or its float32 re-store on the coarse levels of a
	// CoarseFloat32 hierarchy.
	Ops []op.Operator
	// Itp[k] is the plain interpolant view for level pair k/k+1 (the
	// hierarchy's, or its float32 re-store); SItp[k] the smoothed
	// interpolant view P̄ = (I − diag(s_k) A_k) P[k] that Multadd's
	// correction chains use. len == levels-1.
	Itp, SItp []op.Interp
	// Cfg is the smoother configuration used on every level.
	Cfg smoother.Config

	// Setup is the per-stage timing of the hierarchy build when this
	// engine ran it (New); nil when the engine wrapped a pre-built
	// hierarchy (NewFromHierarchy).
	Setup *amg.SetupStats

	wsPool, corrPool sync.Pool

	// obs receives per-grid relaxation/correction counts and cycle
	// residual samples from the engine's own cycle methods. Nil (the
	// default) disables instrumentation at the cost of one branch per
	// event. The cycle and Correction bodies record nothing themselves:
	// the serial dispatch reports each cycle (RecordCycle), and the
	// async/distmem/model callers attribute each applied correction
	// (RecordCorrection), so a solve is never double-counted.
	obs *obs.Observer
}

// SetObserver attaches a metrics observer to the engine's cycle methods.
// Call it before solving; it must not race with running cycles. If the
// engine ran the AMG setup itself, the setup timing breakdown is
// recorded into the observer's setup counters on attach.
func (s *Engine) SetObserver(o *obs.Observer) {
	s.obs = o
	if st := s.Setup; st != nil {
		o.SetupDone(st.Total, st.Strength, st.Coarsen, st.Interp, st.Transpose, st.RAP, st.Factor, st.Sparsify)
		if len(st.SparsifyLevels) > 0 {
			kept := 0
			for _, l := range st.SparsifyLevels {
				if !l.Skipped && !l.Reverted {
					kept++
				}
			}
			o.Sparsified(int64(kept), int64(st.DroppedNNZ()), int64(st.SparsifyFallbacks))
		}
	}
}

// New builds the hierarchy for a and all solver operators.
func New(a *sparse.CSR, amgOpt amg.Options, smoCfg smoother.Config) (*Engine, error) {
	h, st, err := amg.BuildWithStats(a, amgOpt)
	if err != nil {
		return nil, err
	}
	return adopt(h, st, smoCfg)
}

// NewOperator builds the hierarchy and all solver operators from an
// arbitrary fine-level operator: the operator-generic New. A CSR-backed
// operator takes the standard algebraic setup; a matrix-free stencil
// coarsens itself geometrically down to 4 096 rows first
// (amg.BuildOperatorWithStats), every geometric level keeps its class
// stencil as its operator, and the fine matrix is never materialized.
func NewOperator(a op.Operator, amgOpt amg.Options, smoCfg smoother.Config) (*Engine, error) {
	h, st, err := amg.BuildOperatorWithStats(a, amgOpt)
	if err != nil {
		return nil, err
	}
	return adopt(h, st, smoCfg)
}

// adopt builds the engine on a hierarchy built for it alone, which then
// holds the engine's views: on a CoarseFloat32 hierarchy the float64
// operators and interpolants they replace become collectable.
func adopt(h *amg.Hierarchy, st *amg.SetupStats, smoCfg smoother.Config) (*Engine, error) {
	eng, err := NewFromHierarchy(h, smoCfg)
	if err != nil {
		return nil, err
	}
	eng.Setup = st
	for k := range h.Levels {
		h.Levels[k].Op = eng.Ops[k]
		if k < len(eng.Itp) {
			h.Levels[k].Itp = eng.Itp[k]
		}
	}
	return eng, nil
}

// NewFromHierarchy builds solver operators on an existing hierarchy,
// which it leaves as it is. The hierarchy's Precision policy is applied
// here: with CoarseFloat32 the coarse operators (k >= 1) and every
// interpolant are re-stored in float32 (float64 accumulation) for the
// engine's view.
func NewFromHierarchy(h *amg.Hierarchy, smoCfg smoother.Config) (*Engine, error) {
	l := h.NumLevels()
	s := &Engine{H: h, Cfg: smoCfg, Ops: make([]op.Operator, l), Smo: make([]*smoother.S, l),
		Itp: make([]op.Interp, l-1), SItp: make([]op.Interp, l-1)}
	f32 := h.Precision == op.CoarseFloat32
	for k := range h.Levels {
		lev := &h.Levels[k]
		a := lev.Op
		if f32 && k >= 1 {
			switch v := a.(type) {
			case *op.CSR[float64, int]:
				a = op.NewCSR32(v.M)
			case *op.Stencil:
				a = v.RoundFloat32()
			}
		}
		s.Ops[k] = a
		sm, err := smoother.NewOperator(a, smoCfg)
		if err != nil {
			return nil, fmt.Errorf("mg: level %d smoother: %w", k, err)
		}
		s.Smo[k] = sm
		if k == l-1 {
			break
		}
		// P̄ scales by the smoother's own M⁻¹; the block kinds, whose M is
		// not diagonal, by ω-Jacobi's (Section V).
		scale := sm.InvDiag()
		if scale == nil {
			if scale, err = smoother.InterpolantScalingOp(a, smoCfg); err != nil {
				return nil, fmt.Errorf("mg: level %d interpolant scaling: %w", k, err)
			}
		}
		if g, ok := lev.Itp.(*op.GeomInterp); ok {
			// Geometric level: P and P̄ are class tables over the level's
			// float64 stencil. Level 0 stays float64; coarser P̄ weights
			// round to float32 as a CSR32 P̄ would (P's are powers of two,
			// exact in float32 already).
			st, ok := lev.Op.(*op.Stencil)
			if !ok {
				return nil, fmt.Errorf("mg: level %d operator %T cannot smooth a geometric interpolant", k, lev.Op)
			}
			pbar := g.Smooth(st, scale)
			if f32 && k >= 1 {
				pbar = pbar.RoundFloat32()
			}
			s.Itp[k], s.SItp[k] = g, pbar
			continue
		}
		itp, ok := lev.Itp.(*op.CSRInterp[float64, int])
		if !ok {
			return nil, fmt.Errorf("mg: level %d interpolant %T is not a float64 P", k, lev.Itp)
		}
		// P̄ = P − diag(scale)·A·P, computed as a sparse product then a
		// row-scaled subtraction, over the float64 A_k. The hand-off level
		// of a stencil hierarchy holds A_k as its class stencil, which the
		// product reads materialized, here only.
		ak := op.AsCSR(lev.Op)
		if st, ok := lev.Op.(*op.Stencil); ok {
			ak = st.CSR()
		}
		ap := sparse.MatMul(ak, itp.P)
		ap.ScaleRows(scale)
		pbar := sparse.Sub(itp.P, ap)
		if f32 {
			s.Itp[k] = op.NewCSR32Interp(itp.P, itp.PT)
			s.SItp[k] = op.NewCSR32Interp(pbar, nil)
			continue
		}
		s.Itp[k] = itp
		s.SItp[k] = op.InterpFromCSR(pbar, nil)
	}
	return s, nil
}

// HierarchyBytes reports the resident storage of the engine's hierarchy
// view: every level operator plus the plain and smoothed interpolant
// views. Matrix-free operators contribute O(1); a compressed view counts
// its float32 stores.
func (s *Engine) HierarchyBytes() int {
	total := 0
	for _, a := range s.Ops {
		total += a.Bytes()
	}
	for _, t := range s.Itp {
		total += t.Bytes()
	}
	for _, t := range s.SItp {
		total += t.Bytes()
	}
	return total
}

// NumLevels returns the hierarchy depth.
func (s *Engine) NumLevels() int { return s.H.NumLevels() }

// LevelSize returns the number of rows on level k.
func (s *Engine) LevelSize(k int) int { return s.Ops[k].Rows() }

// RelRes returns the true relative residual ‖b − A x‖₂/‖b‖₂ of an iterate
// on the fine level (‖b‖₂ = 0 divides by 1), through the fine operator's
// Residual and the serial Norm2, so it does not depend on the worker
// count.
func (s *Engine) RelRes(b, x []float64) float64 {
	r := make([]float64, len(b))
	s.Ops[0].Residual(r, b, x)
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	return vec.Norm2(r) / nb
}

// NewLevelSmoother builds a level-k smoother on the engine's operator
// view with the engine's configuration and the given block count (team
// runtimes use one block per thread).
func (s *Engine) NewLevelSmoother(k, blocks int) (*smoother.S, error) {
	cfg := s.Cfg
	cfg.Blocks = blocks
	return smoother.NewOperator(s.Ops[k], cfg)
}

// Workspace holds the per-level scratch vectors of one cycle execution.
// A Workspace must not be shared between concurrent cycles.
type Workspace struct {
	r, e, tmp [][]float64
}

// NewWorkspace allocates scratch for the engine's hierarchy. Prefer
// AcquireWorkspace/ReleaseWorkspace, which recycle workspaces through a
// pool.
func (s *Engine) NewWorkspace() *Workspace {
	l := s.NumLevels()
	w := &Workspace{r: make([][]float64, l), e: make([][]float64, l), tmp: make([][]float64, l)}
	for k := range w.r {
		n := s.LevelSize(k)
		w.r[k], w.e[k], w.tmp[k] = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	return w
}

// AcquireWorkspace returns a pooled cycle workspace; pair with
// ReleaseWorkspace. Contents are unspecified (every cycle fully
// overwrites what it reads).
func (s *Engine) AcquireWorkspace() *Workspace {
	if w, _ := s.wsPool.Get().(*Workspace); w != nil {
		return w
	}
	return s.NewWorkspace()
}

// ReleaseWorkspace returns w to the pool for reuse.
func (s *Engine) ReleaseWorkspace(w *Workspace) { s.wsPool.Put(w) }

// AcquireCorrWorkspace returns a pooled grid-correction workspace; pair
// with ReleaseCorrWorkspace.
func (s *Engine) AcquireCorrWorkspace() *CorrWorkspace {
	if w, _ := s.corrPool.Get().(*CorrWorkspace); w != nil {
		return w
	}
	return s.NewCorrWorkspace()
}

// ReleaseCorrWorkspace returns w to the pool for reuse.
func (s *Engine) ReleaseCorrWorkspace(w *CorrWorkspace) { s.corrPool.Put(w) }

// CoarseSolveScratch computes e = A_L⁻¹ r on the coarsest level, falling
// back to a single smoothing sweep if the LU factorization is unavailable;
// scratch (len >= the coarsest level size) is clobbered, so repeated
// solves allocate nothing.
func (s *Engine) CoarseSolveScratch(e, r, scratch []float64) {
	if s.H.Coarse != nil {
		s.H.Coarse.SolveScratch(e, r, scratch)
		return
	}
	vec.Zero(e)
	s.Smo[s.NumLevels()-1].Apply(e, r)
}
