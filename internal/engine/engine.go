// Package engine is the shared multigrid cycle engine: it owns the
// hierarchy view (the AMG levels plus every matrix-derived operator the
// solvers need — transposes, smoothed interpolants, cached diagonals and
// row norms), pooled per-level workspaces, and the single implementation
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

// Engine bundles everything the cycles need: the AMG hierarchy,
// per-level smoothers, the smoothed interpolants of Multadd with their
// transposes, and the cached per-level diagonals/row norms that smoother
// construction and interpolant scaling share.
type Engine struct {
	H *amg.Hierarchy
	// Smo[k] smooths on level k. The coarsest level also has a smoother
	// (AFACx smooths there; Mult/Multadd use the exact solve when
	// available).
	Smo []*smoother.S
	// Ops[k] is the operator view of level k the cycles run on: a CSR
	// adapter in the default float64 configuration, the hierarchy's
	// matrix-free operator on a stencil fine level, or a float32 re-store
	// on compressed coarse levels.
	Ops []op.Operator
	// Itp[k] is the plain interpolant view for level pair k/k+1; SItp[k]
	// the smoothed interpolant view P̄ = (I − diag(s_k) A_k) P[k] that
	// Multadd's correction chains use. len == levels-1.
	Itp, SItp []op.Interp
	// Cfg is the smoother configuration used on every level.
	Cfg smoother.Config

	// Setup is the per-stage timing of the hierarchy build when this
	// engine ran it (New); nil when the engine wrapped a pre-built
	// hierarchy (NewFromHierarchy).
	Setup *amg.SetupStats

	// diag[k] caches A_k's diagonal; rowL1[k] its row ℓ1 norms (only
	// populated when the smoother kind needs them). Both are shared with
	// every smoother built through NewLevelSmoother, so repeated smoother
	// construction (one per async team, per level) never rescans a matrix.
	diag, rowL1 [][]float64

	wsPool, corrPool sync.Pool

	// obs receives per-grid relaxation/correction counts and cycle
	// residual samples from the engine's own cycle methods. Nil (the
	// default) disables instrumentation at the cost of one branch per
	// event. The shared Correction body is NOT auto-instrumented — the
	// async/distmem/model callers attribute their own counts, so a solve
	// is never double-counted.
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
	eng, err := NewFromHierarchy(h, smoCfg)
	if err != nil {
		return nil, err
	}
	eng.Setup = st
	// The hierarchy was built here and is exclusively this engine's, so a
	// compressed view may drop the float64 copies it replaced.
	eng.ReleaseFloat64Storage()
	return eng, nil
}

// NewFromHierarchy builds solver operators on an existing hierarchy.
// The hierarchy's Precision policy is applied here: with CoarseFloat32
// the coarse operators (k >= 1) and every interpolant are re-stored in
// float32 (float64 accumulation) for the engine's view; the setup-built
// float64 matrices stay on the hierarchy untouched (see
// ReleaseFloat64Storage for dropping them when the engine owns it).
func NewFromHierarchy(h *amg.Hierarchy, smoCfg smoother.Config) (*Engine, error) {
	l := h.NumLevels()
	s := &Engine{H: h, Cfg: smoCfg}
	f32 := h.Precision == op.CoarseFloat32
	// Operator views: the default path wraps each CSR level once, a
	// matrix-free fine level passes through, and compressed coarse levels
	// convert to float32 storage.
	s.Ops = make([]op.Operator, l)
	for k := 0; k < l; k++ {
		a := h.Levels[k].Operator()
		if f32 && k >= 1 {
			if m := op.AsCSR(a); m != nil {
				a = op.NewCSR32(m)
			} else if st, ok := a.(*op.Stencil); ok {
				a = st.RoundFloat32()
			}
		}
		s.Ops[k] = a
	}
	// Cache the operator-derived vectors once per level; smoother
	// construction and interpolant scaling below both read them. On
	// compressed levels the diagonal comes from the float32 store, so the
	// smoother and the matrix it sweeps agree on precision.
	s.diag = make([][]float64, l)
	s.rowL1 = make([][]float64, l)
	for k := 0; k < l; k++ {
		s.diag[k] = s.Ops[k].Diag()
		if smoCfg.Kind == smoother.L1Jacobi {
			s.rowL1[k] = s.Ops[k].RowL1Norms()
		}
	}
	s.Smo = make([]*smoother.S, l)
	for k := 0; k < l; k++ {
		sm, err := smoother.NewOperator(s.Ops[k], smoCfg, s.Pre(k))
		if err != nil {
			return nil, fmt.Errorf("mg: level %d smoother: %w", k, err)
		}
		s.Smo[k] = sm
	}
	s.Itp = make([]op.Interp, l-1)
	s.SItp = make([]op.Interp, l-1)
	for k := 0; k < l-1; k++ {
		scale, err := smoother.InterpolantScalingOp(s.Ops[k], smoCfg, s.Pre(k))
		if err != nil {
			return nil, fmt.Errorf("mg: level %d interpolant scaling: %w", k, err)
		}
		if g, ok := h.Levels[k].Itp.(*op.GeomInterp); ok {
			// Geometric level: P and P̄ are class tables over the level's
			// float64 stencil. Level 0 stays float64; coarser P̄ weights
			// round to float32 as a CSR32 P̄ would (P's are powers of two,
			// exact in float32 already).
			a, ok := h.Levels[k].Op.(*op.Stencil)
			if !ok {
				return nil, fmt.Errorf("mg: level %d operator %T cannot smooth a geometric interpolant", k, h.Levels[k].Op)
			}
			pbar := g.Smooth(a, scale)
			if f32 && k >= 1 {
				pbar = pbar.RoundFloat32()
			}
			s.Itp[k], s.SItp[k] = g, pbar
			continue
		}
		p := h.Levels[k].P
		// The setup phase caches Pᵀ on the level (it already needed it for
		// the Galerkin product); only hand-built hierarchies lack it.
		pt := h.Levels[k].PT
		if pt == nil {
			pt = p.Transpose()
		}
		// P̄ = P − diag(scale)·A·P, computed as a sparse product then a
		// row-scaled subtraction.
		ap := sparse.MatMul(h.Levels[k].A, p)
		ap.ScaleRows(scale)
		pbar := sparse.Sub(p, ap)
		if f32 {
			// Compressed interpolants: the float64 P̄ pair is converted and
			// dropped; P/PT stay only on the hierarchy.
			s.Itp[k] = op.NewCSR32Interp(p, pt)
			s.SItp[k] = op.NewCSR32Interp(pbar, pbar.Transpose())
			continue
		}
		s.Itp[k] = op.InterpFromCSR(p, pt)
		s.SItp[k] = op.InterpFromCSR(pbar, pbar.Transpose())
	}
	return s, nil
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
	eng, err := NewFromHierarchy(h, smoCfg)
	if err != nil {
		return nil, err
	}
	eng.Setup = st
	eng.ReleaseFloat64Storage()
	return eng, nil
}

// HierarchyBytes reports the resident storage of the engine's hierarchy
// view: every level operator plus the plain and smoothed interpolant
// views. Matrix-free operators contribute O(1); a compressed view counts
// its float32 stores (the float64 originals still on the hierarchy are
// not the engine's — see ReleaseFloat64Storage).
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

// ReleaseFloat64Storage rewires the hierarchy levels onto the engine's
// stencil and float32 views and drops the setup-built float64 matrices
// they replaced, making that storage collectable: the materialized A
// beside the stencil of the first level below the geometric ones (only
// the algebraic setup read it) and, on a float32 hierarchy, every
// float64 operator and interpolant. Call only when the engine
// exclusively owns its hierarchy (the facade's one-shot setup does; a
// hierarchy shared across engines must keep its float64 levels). The
// fine level and the coarse LU factorization are always retained.
func (s *Engine) ReleaseFloat64Storage() {
	for k := range s.H.Levels {
		lev := &s.H.Levels[k]
		if k < len(s.Itp) {
			if _, ok := s.Itp[k].(*op.CSRInterp[float32, int32]); ok {
				lev.P, lev.PT = nil, nil
				lev.Itp = s.Itp[k]
			}
		}
		switch s.Ops[k].(type) {
		case *op.CSR[float32, int32], *op.Stencil:
			lev.A = nil
			lev.Op = s.Ops[k]
		}
	}
}

// NumLevels returns the hierarchy depth.
func (s *Engine) NumLevels() int { return s.H.NumLevels() }

// LevelSize returns the number of rows on level k.
func (s *Engine) LevelSize(k int) int { return s.H.Levels[k].Rows() }

// Pre returns the cached matrix-derived vectors of level k for smoother
// construction. Zero-valued (forcing recomputation) when the engine was
// built without the constructors.
func (s *Engine) Pre(k int) smoother.Precomputed {
	pre := smoother.Precomputed{}
	if k < len(s.diag) {
		pre.Diag = s.diag[k]
	}
	if k < len(s.rowL1) {
		pre.RowL1 = s.rowL1[k]
	}
	return pre
}

// NewLevelSmoother builds a level-k smoother with the engine's
// configuration and the given block count (team runtimes use one block
// per thread), sourcing the diagonal/row-norm vectors from the cached
// hierarchy view.
func (s *Engine) NewLevelSmoother(k, blocks int) (*smoother.S, error) {
	cfg := s.Cfg
	cfg.Blocks = blocks
	return smoother.NewOperator(s.Ops[k], cfg, s.Pre(k))
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
	w := &Workspace{
		r:   make([][]float64, l),
		e:   make([][]float64, l),
		tmp: make([][]float64, l),
	}
	for k := 0; k < l; k++ {
		n := s.LevelSize(k)
		w.r[k] = make([]float64, n)
		w.e[k] = make([]float64, n)
		w.tmp[k] = make([]float64, n)
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

// CoarseSolve computes e = A_L⁻¹ r on the coarsest level, falling back
// to a single smoothing sweep if the LU factorization is unavailable.
func (s *Engine) CoarseSolve(e, r []float64) {
	if s.H.Coarse != nil {
		s.H.Coarse.Solve(e, r)
		return
	}
	vec.Zero(e)
	s.Smo[s.NumLevels()-1].Apply(e, r)
}

// CoarseSolveScratch is CoarseSolve with caller-provided scratch
// (len >= the coarsest level size, clobbered), for allocation-free
// repeated solves.
func (s *Engine) CoarseSolveScratch(e, r, scratch []float64) {
	if s.H.Coarse != nil {
		s.H.Coarse.SolveScratch(e, r, scratch)
		return
	}
	vec.Zero(e)
	s.Smo[s.NumLevels()-1].Apply(e, r)
}
