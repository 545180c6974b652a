package amg

import (
	"fmt"
	"time"

	"asyncmg/internal/dense"
	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// Options configures the AMG setup. The zero value is not valid; use
// DefaultOptions and modify.
type Options struct {
	// Theta is the strength-of-connection threshold.
	Theta float64
	// Coarsening selects PMIS or HMIS.
	Coarsening CoarsenMethod
	// AggressiveLevels applies aggressive (distance-two) coarsening on the
	// first this-many levels, as in the paper's BoomerAMG configuration
	// ("HMIS coarsening with one/two aggressive levels").
	AggressiveLevels int
	// Interp selects the interpolation scheme for non-aggressive levels.
	// Aggressive levels always use multipass interpolation (required,
	// since F points can be two strong edges from every C point).
	Interp InterpType
	// TruncMax limits interpolation stencil size per row (0 = unlimited).
	TruncMax int
	// TruncTol drops interpolation entries below TruncTol times the row
	// max magnitude.
	TruncTol float64
	// MaxLevels caps the hierarchy depth (including the finest level).
	MaxLevels int
	// MinCoarse stops coarsening when a level has at most this many rows.
	MinCoarse int
	// Seed feeds the randomized coarsening tie-breakers.
	Seed int64
	// NumFunctions enables the "unknown approach" for PDE systems with
	// interleaved degrees of freedom (e.g. 3 for 3-D elasticity with
	// x/y/z displacements per node): strength of connection, coarsening
	// and interpolation are restricted to same-function couplings, and
	// each coarse point inherits its fine point's function. 0 or 1 means
	// a scalar problem.
	NumFunctions int
	// CoarsePrecision selects the storage precision of coarse-level
	// operators and interpolants in the solver's hierarchy view
	// (op.Float64 keeps everything in float64 CSR; op.CoarseFloat32
	// re-stores levels k >= 1 and all interpolants in float32 with
	// float64 accumulation). The setup itself always runs in float64 —
	// the engine performs the conversion after building its cached view.
	CoarsePrecision op.Precision
	// Sparsify enables post-RAP sparsification of interior coarse
	// operators (with the per-level convergence guard). The zero value
	// disables it, keeping the hierarchy bitwise-identical to previous
	// builds.
	Sparsify SparsifyOptions
}

// DefaultOptions mirrors the paper's BoomerAMG configuration: HMIS
// coarsening, classical modified interpolation, one aggressive level,
// moderate truncation.
func DefaultOptions() Options {
	return Options{
		Theta:            0.25,
		Coarsening:       HMIS,
		AggressiveLevels: 1,
		Interp:           ClassicalModified,
		TruncMax:         4,
		TruncTol:         0.0,
		MaxLevels:        25,
		MinCoarse:        40,
		Seed:             7,
	}
}

// Level is one level of the multigrid hierarchy.
type Level struct {
	// A is the operator on this level as float64 CSR (Galerkin product
	// below the finest); nil on a matrix-free fine level, where Op holds
	// the operator instead. Level 1 of a matrix-free hierarchy holds both:
	// A materialized from the class stencil Op for the algebraic setup
	// below it and for the engine's P̄₁, dropped by the engine's
	// ReleaseFloat64Storage.
	A *sparse.CSR
	// Op is the operator view of a level stored other than as float64 CSR
	// (a stencil, or a float32 store after ReleaseFloat64Storage); when
	// set, it is the level's operator.
	Op op.Operator
	// P prolongates from the next coarser level to this one; nil on the
	// coarsest level and on levels whose interpolant is matrix-free (Itp).
	P *sparse.CSR
	// PT is the cached transpose of P, computed once during setup and
	// shared between the Galerkin triple product and the solver-facing
	// restriction view (the engine previously re-transposed P per level);
	// nil on the coarsest level.
	PT *sparse.CSR
	// Itp is the interpolant view of a level without materialized P/PT
	// (the geometric interpolant of a matrix-free fine level); nil when P
	// is set.
	Itp op.Interp
	// Types is the C/F splitting used to build P; nil on the coarsest and
	// on geometrically coarsened levels.
	Types []PointType
}

// Rows returns the level's row count from whichever view is present.
func (l *Level) Rows() int {
	if l.A != nil {
		return l.A.Rows
	}
	return l.Op.Rows()
}

// NNZ returns the level operator's stored-or-implied nonzero count.
func (l *Level) NNZ() int {
	if l.A != nil {
		return l.A.NNZ()
	}
	return l.Op.NNZEquivalent()
}

// Operator returns the level's operator view, wrapping a CSR level on
// demand. The wrapper is a thin adapter; hierarchy-view owners that call
// per cycle should cache the result.
func (l *Level) Operator() op.Operator {
	if l.Op != nil {
		return l.Op
	}
	return op.FromCSR(l.A)
}

// Hierarchy is the output of the AMG setup: level 0 is the finest grid.
type Hierarchy struct {
	Levels []Level
	// Coarse is the LU factorization of the coarsest operator, or nil if
	// the coarsest matrix was singular or above maxCoarseLU rows (solvers
	// then fall back to smoothing on the coarsest level, as AFACx does
	// anyway).
	Coarse *dense.LU
	// Precision is the storage-precision policy requested for the
	// solver's hierarchy view (Options.CoarsePrecision, recorded here so
	// view owners see it without the Options). The Levels above are
	// always float64; the engine applies the conversion.
	Precision op.Precision
}

// NumLevels returns the number of levels (>= 1).
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// OperatorComplexity returns Σ_k nnz(A_k) / nnz(A_0), the standard AMG
// grid-complexity metric. Matrix-free levels count their implied
// nonzeros.
func (h *Hierarchy) OperatorComplexity() float64 {
	total := 0
	for i := range h.Levels {
		total += h.Levels[i].NNZ()
	}
	return float64(total) / float64(h.Levels[0].NNZ())
}

// SetupStats is the per-stage wall-time breakdown of one AMG setup. All
// durations are cumulative across levels.
type SetupStats struct {
	// Total is the wall time of the whole setup phase.
	Total time.Duration
	// Strength covers strength-of-connection graph construction.
	Strength time.Duration
	// Coarsen covers the PMIS/HMIS (and aggressive second-pass) C/F splits.
	Coarsen time.Duration
	// Interp covers interpolation assembly including truncation.
	Interp time.Duration
	// Transpose covers building the cached Pᵀ per level (previously
	// lumped into RAP).
	Transpose time.Duration
	// RAP covers the Galerkin triple product (and, on a matrix-free fine
	// level, the geometric first coarsening that produces A₁).
	RAP time.Duration
	// Factor covers the dense LU factorization of the coarsest operator.
	Factor time.Duration
	// Sparsify covers coarse-operator sparsification including the
	// convergence-guard probes; zero when sparsification is disabled.
	Sparsify time.Duration
	// Levels is the hierarchy depth produced.
	Levels int
	// SparsifyLevels records per-level sparsification outcomes (nnz
	// before/after, skip/revert); empty when sparsification is disabled.
	SparsifyLevels []SparsifyLevelStat
	// SparsifyFallbacks counts levels the convergence guard reverted to
	// their unsparsified operators.
	SparsifyFallbacks int
	// StagedPeak is the most untruncated composed entries the later
	// multipass passes held at once on any level: a count, the same on
	// every run and at any worker count.
	StagedPeak int
}

// maxCoarseLU is the largest coarsest level BuildWithStats factors: a
// dense LU takes 8·n² bytes, 128 MiB at 4 096 rows. A coarsest level
// above it (coarsening stalled, or MaxLevels cut it short) keeps Coarse
// nil, and the solvers smooth there instead.
const maxCoarseLU = 4096

// BuildWithStats runs the AMG setup phase on the fine-grid matrix a and
// returns its per-stage breakdown, feeding the setup observability tables
// and benchmarks.
func BuildWithStats(a *sparse.CSR, opt Options) (*Hierarchy, *SetupStats, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("amg: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if opt.MaxLevels < 1 {
		return nil, nil, fmt.Errorf("amg: MaxLevels must be >= 1, got %d", opt.MaxLevels)
	}
	st := &SetupStats{}
	start := time.Now()
	h := &Hierarchy{Precision: opt.CoarsePrecision}
	cur := a
	// Function map for the unknown approach (nil for scalar problems).
	var fun []int
	if opt.NumFunctions > 1 {
		if a.Rows%opt.NumFunctions != 0 {
			return nil, nil, fmt.Errorf("amg: %d rows not divisible by NumFunctions %d", a.Rows, opt.NumFunctions)
		}
		fun = make([]int, a.Rows)
		for i := range fun {
			fun[i] = i % opt.NumFunctions
		}
	}
	for lvl := 0; ; lvl++ {
		if lvl == opt.MaxLevels-1 || cur.Rows <= opt.MinCoarse {
			h.Levels = append(h.Levels, Level{A: cur})
			break
		}
		t0 := time.Now()
		s := StrengthGraphFunc(cur, opt.Theta, fun)
		st.Strength += time.Since(t0)
		aggressive := lvl < opt.AggressiveLevels
		t0 = time.Now()
		var types []PointType
		if aggressive {
			types = CoarsenAggressive(s, opt.Coarsening, opt.Seed+int64(lvl))
		} else {
			types = Coarsen(s, opt.Coarsening, opt.Seed+int64(lvl))
		}
		st.Coarsen += time.Since(t0)
		nc := CountC(types)
		if nc == 0 || nc >= cur.Rows {
			// Coarsening stalled; stop here.
			h.Levels = append(h.Levels, Level{A: cur})
			break
		}
		it := opt.Interp
		if aggressive {
			it = Multipass
		}
		t0 = time.Now()
		p, staged := interpolate(cur, s, types, it, fun, opt.TruncTol, opt.TruncMax)
		st.Interp += time.Since(t0)
		st.StagedPeak = max(st.StagedPeak, staged)
		// One transpose per level, shared by the triple product here and
		// by the engine's restriction view (which used to recompute it).
		t0 = time.Now()
		pt := p.Transpose()
		st.Transpose += time.Since(t0)
		t0 = time.Now()
		next := sparse.RAPWith(cur, p, pt)
		st.RAP += time.Since(t0)
		h.Levels = append(h.Levels, Level{A: cur, P: p, PT: pt, Types: types})
		// Coarse points inherit their fine point's function.
		if fun != nil {
			coarseFun := make([]int, 0, nc)
			for i, t := range types {
				if t == CPoint {
					coarseFun = append(coarseFun, fun[i])
				}
			}
			fun = coarseFun
		}
		cur = next
	}
	// Sparsify interior coarse operators (and run the convergence guard)
	// before factoring, so the factored/viewed chain is the guarded one.
	sparsifyHierarchy(h, opt.Sparsify, st)
	// Factor the coarsest operator for exact solves, if it is small
	// enough to hold densely.
	t0 := time.Now()
	if last := h.Levels[len(h.Levels)-1].A; last.Rows <= maxCoarseLU {
		h.Coarse, _ = dense.Factor(last) // nil if singular
	}
	st.Factor = time.Since(t0)
	st.Total = time.Since(start)
	st.Levels = len(h.Levels)
	return h, st, nil
}

// GridSizes returns the number of rows on each level, finest first.
func (h *Hierarchy) GridSizes() []int {
	out := make([]int, len(h.Levels))
	for i := range h.Levels {
		out[i] = h.Levels[i].Rows()
	}
	return out
}

// BuildOperatorWithStats is the operator-generic setup entry. A fine
// operator backed by float64 CSR takes the standard algebraic path
// (BuildWithStats on the matrix). A matrix-free stencil coarsens itself
// geometrically (op.Stencil.Coarsen): level 1 is the Galerkin coarse
// stencil A₁ = P₀ᵀ A P₀, materialized once as CSR for the algebraic setup
// below it, and the fine matrix is never formed. The returned hierarchy
// has the stencil as level 0 (Op/Itp views), A₁ as level 1 (Op and A) and
// the algebraic hierarchy of A₁ below.
func BuildOperatorWithStats(a op.Operator, opt Options) (*Hierarchy, *SetupStats, error) {
	if m := op.AsCSR(a); m != nil {
		return BuildWithStats(m, opt)
	}
	fine, ok := a.(*op.Stencil)
	if !ok {
		return nil, nil, fmt.Errorf("amg: operator %T is neither CSR-backed nor a stencil", a)
	}
	if opt.MaxLevels < 2 {
		return nil, nil, fmt.Errorf("amg: matrix-free setup needs MaxLevels >= 2, got %d", opt.MaxLevels)
	}
	start := time.Now()
	t0 := time.Now()
	itp, coarse, err := fine.Coarsen()
	if err != nil {
		return nil, nil, fmt.Errorf("amg: geometric coarsening: %w", err)
	}
	a1 := coarse.CSR()
	rap := time.Since(t0)
	sub := opt
	sub.MaxLevels = opt.MaxLevels - 1
	// Aggressive coarsening counts from the finest algebraic level; the
	// geometric level already did one (2h) coarsening step, so consume one
	// aggressive level if configured.
	if sub.AggressiveLevels > 0 {
		sub.AggressiveLevels--
	}
	h, st, err := BuildWithStats(a1, sub)
	if err != nil {
		return nil, nil, err
	}
	h.Levels[0].Op = coarse
	h.Levels = append([]Level{{Op: a, Itp: itp}}, h.Levels...)
	st.RAP += rap
	st.Total = time.Since(start)
	st.Levels = len(h.Levels)
	return h, st, nil
}
