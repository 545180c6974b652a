// Package engine is the shared multigrid cycle engine: it owns the
// hierarchy view (each level's operator and interpolant in the storage
// precision the hierarchy asks for, its smoother, and Multadd's smoothed
// interpolant built from that smoother's own M⁻¹ and the A·P the setup
// kept, so the engine forms no sparse product; the smoothers hold the
// diagonals and row norms, which the engine does not cache beside them),
// free-listed per-level workspaces, and the single implementation
// of the cycles and of the per-grid correction math that the synchronous
// solvers, the goroutine-team asynchronous runtime (package async), the
// sequential §III models (package model), the Krylov preconditioners
// (package krylov) and the distributed-memory simulation (package
// distmem) all consume. New and NewOperator also apply
// amg.Options.Sparsify, whose guard measures with this package's own Mult
// cycle (sparsify.go).
//
// Hot paths are allocation-free in the steady state: workspaces are
// recycled through the engine's own free lists, the coarse LU solve uses
// caller-provided scratch, and the sparse/vec kernels dispatch onto the
// persistent worker pool of package par.
package engine

import (
	"fmt"

	"asyncmg/internal/amg"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
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
	// correction chains use: a class table on a geometric level, a
	// row-length-ordered store (op.OrderedInterp) on an algebraic one.
	// len == levels-1.
	Itp, SItp []op.Interp
	// Cfg is the smoother configuration used on every level.
	Cfg smoother.Config

	// Setup is the per-stage timing of the hierarchy build when this
	// engine ran it (New); nil when the engine wrapped a pre-built
	// hierarchy (NewFromHierarchy).
	Setup *amg.SetupStats

	ws   par.FreeList[Workspace]
	corr par.FreeList[CorrWorkspace]

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
	return NewOperator(op.FromCSR(a), amgOpt, smoCfg)
}

// NewOperator builds the hierarchy and all solver operators from an
// arbitrary fine-level operator: the operator-generic New. A CSR-backed
// operator takes the standard algebraic setup; a matrix-free stencil
// coarsens itself geometrically down to 4 096 rows first
// (amg.BuildOperatorWithStats), every geometric level keeps its class
// stencil as its operator, and the fine matrix is never materialized.
// With amgOpt.Sparsify the interior coarse operators are sparsified and
// guarded (sparsifyHierarchy) before the engine is built.
func NewOperator(a op.Operator, amgOpt amg.Options, smoCfg smoother.Config) (*Engine, error) {
	h, st, err := amg.BuildOperatorWithStats(a, amgOpt)
	if err != nil {
		return nil, err
	}
	if amgOpt.Sparsify {
		if err := sparsifyHierarchy(h, amg.Theta, smoCfg, st); err != nil {
			return nil, fmt.Errorf("mg: sparsification guard: %w", err)
		}
	}
	return adopt(h, st, smoCfg)
}

// adopt builds the engine on a hierarchy built for it alone, which then
// holds the engine's views and no A·P: on a CoarseFloat32 hierarchy the
// float64 operators and interpolants they replace become collectable, and
// so does every A·P, whose entries each P̄ copied into its own
// row-length-ordered store.
func adopt(h *amg.Hierarchy, st *amg.SetupStats, smoCfg smoother.Config) (*Engine, error) {
	eng, err := NewFromHierarchy(h, smoCfg)
	if err != nil {
		return nil, err
	}
	eng.Setup = st
	for k := range h.Levels {
		h.Levels[k].AP = nil
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
// engine's view. Each smoothed interpolant on an algebraic level is
// stored in row-length order (op.OrderedInterp), in float32 on a
// CoarseFloat32 hierarchy, filled from its level's A·P in one merge pass
// (smoothedInterp); a level with a CSR interpolant and no A·P is an
// error.
func NewFromHierarchy(h *amg.Hierarchy, smoCfg smoother.Config) (*Engine, error) {
	return newFromHierarchy(h, smoCfg, true)
}

// newFromHierarchy is NewFromHierarchy; without smoothed it builds only
// what Mult and AFACx read, leaving SItp nil and reading no A·P (the
// sparsification guard's probes).
func newFromHierarchy(h *amg.Hierarchy, smoCfg smoother.Config, smoothed bool) (*Engine, error) {
	l := h.NumLevels()
	s := &Engine{H: h, Cfg: smoCfg, Ops: make([]op.Operator, l), Smo: make([]*smoother.S, l),
		Itp: make([]op.Interp, l-1), SItp: make([]op.Interp, l-1)}
	f32 := h.Precision == op.CoarseFloat32
	for k := range h.Levels {
		lev := &h.Levels[k]
		a := lev.Op
		if f32 && k >= 1 {
			switch v := a.(type) {
			case *op.CSR[float64, uint32]:
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
		s.Itp[k] = lev.Itp
		itp, csr := lev.Itp.(*op.CSRInterp[float64, uint32])
		if csr && f32 {
			s.Itp[k] = op.NewCSR32Interp(itp.P, itp.PT)
		}
		if !smoothed {
			continue
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
			// round to float32 as an algebraic float32 P̄ would (P's are powers of two,
			// exact in float32 already).
			st, ok := lev.Op.(*op.Stencil)
			if !ok {
				return nil, fmt.Errorf("mg: level %d operator %T cannot smooth a geometric interpolant", k, lev.Op)
			}
			pbar := g.Smooth(st, scale)
			if f32 && k >= 1 {
				pbar = pbar.RoundFloat32()
			}
			s.SItp[k] = pbar
			continue
		}
		if !csr {
			return nil, fmt.Errorf("mg: level %d interpolant %T is not a float64 P", k, lev.Itp)
		}
		if ap := lev.AP; ap == nil || ap.Rows != itp.P.Rows || ap.Cols != itp.P.Cols {
			return nil, fmt.Errorf("mg: level %d holds no %dx%d A·P to smooth its interpolant with", k, itp.P.Rows, itp.P.Cols)
		}
		if f32 {
			s.SItp[k] = smoothedInterp[float32](itp.P, lev.AP, scale)
		} else {
			s.SItp[k] = smoothedInterp[float64](itp.P, lev.AP, scale)
		}
	}
	return s, nil
}

// smoothedInterp returns P̄ = P − diag(scale)·AP for AP = A·P, values
// rounded to V, in row-length order (op.OrderedInterp). P's row is inside
// A·P's unless a C row stores no diagonal and no neighbour interpolates
// from it, which only ℓ1-Jacobi accepts; when every row is, P̄ has A·P's
// pattern and is filled in one merge pass over it. Otherwise it is stored
// over the union of the two patterns (unionInterp). Each value rounds as
// P − ScaleRows(A·P) rounds it: p − ap·s where both store the entry,
// −(ap·s) where only A·P does, p where only P does; the conversions keep
// ap·s from fusing into the subtraction.
func smoothedInterp[V sparse.Value](p, ap *sparse.Matrix[float64, uint32], scale []float64) *op.OrderedInterp[V, uint32] {
	inside := true
	pbar := op.NewOrderedInterp(p.Cols, ap.RowPtr, func(i int, cols []uint32, vals []V) {
		s := scale[i]
		pp, pe := p.RowPtr[i], p.RowPtr[i+1]
		q0 := ap.RowPtr[i]
		copy(cols, ap.ColIdx[q0:])
		for q, j := range cols {
			if pp < pe && p.ColIdx[pp] == j {
				vals[q] = V(p.Vals[pp] - float64(ap.Vals[q0+uint32(q)]*s))
				pp++
			} else {
				vals[q] = V(-float64(ap.Vals[q0+uint32(q)] * s))
			}
		}
		inside = inside && pp == pe
	})
	if !inside { // a column of some row of P is not in A·P's
		return unionInterp[V](p, ap, scale)
	}
	return pbar
}

// unionInterp is smoothedInterp over the union of P's and AP's patterns.
func unionInterp[V sparse.Value](p, ap *sparse.Matrix[float64, uint32], scale []float64) *op.OrderedInterp[V, uint32] {
	rowPtr := make([]uint32, p.Rows+1)
	for i := 0; i < p.Rows; i++ {
		rowPtr[i+1] = rowPtr[i] + uint32(smoothRow[V](p, ap, i, 0, nil, nil))
	}
	return op.NewOrderedInterp(p.Cols, rowPtr, func(i int, cols []uint32, vals []V) {
		smoothRow(p, ap, i, scale[i], cols, vals)
	})
}

// smoothRow merges row i of P and of AP into P̄'s row, rounded as
// smoothedInterp rounds it, writing columns to cols and values to vals
// unless cols is nil, and returns the row's length.
func smoothRow[V sparse.Value](p, ap *sparse.Matrix[float64, uint32], i int, s float64, cols []uint32, vals []V) int {
	n := 0
	pp, pe, q, qe := p.RowPtr[i], p.RowPtr[i+1], ap.RowPtr[i], ap.RowPtr[i+1]
	for ; pp < pe || q < qe; n++ {
		var j uint32
		var v float64
		switch {
		case pp == pe || q < qe && ap.ColIdx[q] < p.ColIdx[pp]:
			j, v = ap.ColIdx[q], -float64(ap.Vals[q]*s)
			q++
		case q == qe || p.ColIdx[pp] < ap.ColIdx[q]:
			j, v = p.ColIdx[pp], p.Vals[pp]
			pp++
		default:
			j, v = p.ColIdx[pp], p.Vals[pp]-float64(ap.Vals[q]*s)
			pp++
			q++
		}
		if cols != nil {
			cols[n], vals[n] = j, V(v)
		}
	}
	return n
}

// HierarchyBytes reports the resident storage of the engine's hierarchy
// view: every level operator plus the plain and smoothed interpolant
// views. Matrix-free operators contribute O(1); a compressed view counts
// its float32 stores. The A·P a hierarchy given to NewFromHierarchy keeps
// (New and NewOperator drop it) is not counted.
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
// Residual and the block-ordered vec.Norm2, so it does not depend on the
// worker count. The residual goes into an idle workspace's level-0
// slot; with none idle it costs one n-vector, not a whole workspace.
func (s *Engine) RelRes(b, x []float64) float64 {
	var r []float64
	if w := s.ws.Pop(); w != nil {
		defer s.ws.Put(w)
		r = w.r[0]
	} else {
		r = make([]float64, len(b))
	}
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
// AcquireWorkspace/ReleaseWorkspace, which recycle workspaces through the
// engine's free list.
func (s *Engine) NewWorkspace() *Workspace {
	l := s.NumLevels()
	w := &Workspace{r: make([][]float64, l), e: make([][]float64, l), tmp: make([][]float64, l)}
	for k := range w.r {
		n := s.LevelSize(k)
		w.r[k], w.e[k], w.tmp[k] = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	return w
}

// AcquireWorkspace returns an idle cycle workspace, or a new one when
// none is idle; pair with ReleaseWorkspace. Contents are unspecified
// (every cycle fully overwrites what it reads).
func (s *Engine) AcquireWorkspace() *Workspace { return s.ws.Get(s.NewWorkspace) }

// ReleaseWorkspace returns w to the engine's free list for reuse.
func (s *Engine) ReleaseWorkspace(w *Workspace) { s.ws.Put(w) }

// AcquireCorrWorkspace returns an idle grid-correction workspace, or a
// new one; pair with ReleaseCorrWorkspace.
func (s *Engine) AcquireCorrWorkspace() *CorrWorkspace { return s.corr.Get(s.NewCorrWorkspace) }

// ReleaseCorrWorkspace returns w to the engine's free list for reuse.
func (s *Engine) ReleaseCorrWorkspace(w *CorrWorkspace) { s.corr.Put(w) }

// WorkspaceBytes reports the storage of the cycle and correction
// workspaces the engine has made through AcquireWorkspace and
// AcquireCorrWorkspace, idle or in use: as many of each kind as it ever
// had concurrent holders. Those NewWorkspace and NewCorrWorkspace return
// are their callers'.
func (s *Engine) WorkspaceBytes() int {
	rows := 0
	for _, a := range s.Ops {
		rows += a.Rows()
	}
	// A Workspace is r, e and tmp per level; a CorrWorkspace Lvl and Lvl2
	// per level and a fine-sized E.
	return 8 * (3*rows*s.ws.Made() + (2*rows+s.LevelSize(0))*s.corr.Made())
}

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
