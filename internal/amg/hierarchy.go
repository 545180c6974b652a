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
	// AggressiveLevels applies aggressive (distance-two) coarsening on the
	// first this-many levels, as in the paper's BoomerAMG configuration
	// ("HMIS coarsening with one/two aggressive levels").
	AggressiveLevels int
	// TruncMax limits interpolation stencil size per row (0 = unlimited).
	TruncMax int
	// MaxLevels caps the hierarchy depth (including the finest level).
	MaxLevels int
	// MinCoarse stops coarsening when a level has at most this many rows.
	MinCoarse int
	// NumFunctions enables the "unknown approach" for PDE systems with
	// interleaved degrees of freedom (e.g. 3 for 3-D elasticity with
	// x/y/z displacements per node): strength of connection, coarsening
	// and interpolation are restricted to same-function couplings, and
	// each coarse point inherits its fine point's function. 0 or 1 means
	// a scalar problem.
	NumFunctions int
	// CoarsePrecision selects the storage precision of coarse-level
	// operators and interpolants in the solver's hierarchy view
	// (op.Float64 keeps everything in float64/uint32 CSR; op.CoarseFloat32
	// re-stores levels k >= 1 and all interpolants in float32/uint32 with
	// float64 accumulation). The setup itself always runs in float64;
	// the engine performs the conversion.
	CoarsePrecision op.Precision
	// Sparsify asks the engine constructors (engine.New, NewOperator) to
	// lump the weak entries of interior coarse operators onto the diagonal
	// (SparsifyLump at Theta) under a per-level convergence guard. The
	// setup here ignores it and returns the plain Galerkin hierarchy.
	Sparsify bool
}

// DefaultOptions mirrors the paper's BoomerAMG configuration: HMIS
// coarsening, classical modified interpolation, one aggressive level,
// moderate truncation.
func DefaultOptions() Options {
	return Options{
		AggressiveLevels: 1,
		TruncMax:         4,
		MaxLevels:        25,
		MinCoarse:        40,
	}
}

// The setup's fixed choices, those of the paper's BoomerAMG
// configuration: the strength-of-connection threshold, HMIS coarsening,
// classical modified interpolation on the non-aggressive levels (the
// aggressive ones always use multipass: their F points can be two strong
// edges from every C point), and the seed of the randomized coarsening
// tie-breakers (level k coarsens with seed+k). Theta, the
// strength-of-connection threshold, is also the drop threshold of
// Options.Sparsify.
const (
	Theta      = 0.25
	coarsening = HMIS
	interp     = ClassicalModified
	seed       = 7
)

// Level is one level of the multigrid hierarchy: the operator and the
// interpolant the cycles run, one view each, and on an algebraic level the
// product A_k·P_k the engine forms Multadd's smoothed interpolant from.
type Level struct {
	// Op is the level's operator A_k: op.FromCSR of the float64/uint32
	// Galerkin product on an algebraic level, the class stencil on a
	// geometric level and on the first level below them. Once an engine
	// built by New or NewOperator owns the hierarchy, it is that engine's
	// view (a float32 store on the coarse levels of a CoarseFloat32 one).
	Op op.Operator
	// Itp interpolates from the next coarser level to this one:
	// op.InterpFromCSR(P, Pᵀ) on an algebraic level, the class-table
	// op.GeomInterp on a geometric one, and, once an engine owns the
	// hierarchy, that engine's view; nil on the coarsest level.
	Itp op.Interp
	// Types is the C/F splitting used to build P; nil on the coarsest and
	// on geometrically coarsened levels.
	Types []PointType
	// AP is A_k·P_k on a level with a CSR interpolant: the first product
	// of the Galerkin RAP, kept so the engine forms the smoothed
	// interpolant P − diag(s)·A·P without a second product. A_k is the
	// level's operator, so where sparsification keeps a twin, AP is
	// twin·P_k. Nil on geometric levels, on the coarsest, and once an
	// engine built by New or NewOperator owns the hierarchy.
	AP *sparse.Matrix[float64, uint32]
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
	// view owners see it without the Options). The setup leaves the
	// Levels above in float64; the engine applies the conversion.
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
		total += h.Levels[i].Op.NNZEquivalent()
	}
	return float64(total) / float64(h.Levels[0].Op.NNZEquivalent())
}

// SetupStats is the per-stage wall-time breakdown of one AMG setup. All
// durations are cumulative across levels.
type SetupStats struct {
	// Total is the wall time of the whole setup phase.
	Total time.Duration
	// Strength covers strength-of-connection graph construction, and
	// the re-index of the fine matrix to uint32 (with the function map)
	// that the first strength graph reads.
	Strength time.Duration
	// Coarsen covers the PMIS/HMIS (and aggressive second-pass) C/F splits.
	Coarsen time.Duration
	// Interp covers interpolation assembly including truncation.
	Interp time.Duration
	// Transpose covers building the cached Pᵀ per level (previously
	// lumped into RAP).
	Transpose time.Duration
	// RAP covers the Galerkin triple product, whose first product A·P
	// each level keeps (and, on a matrix-free fine level, the geometric
	// coarsenings and the materialization of the first level below them).
	RAP time.Duration
	// Factor covers the dense LU factorization of the coarsest operator.
	Factor time.Duration
	// Sparsify covers the engine constructors' sparsification and its
	// guard probes, also counted in Total; zero when it is disabled.
	Sparsify time.Duration
	// Levels is the hierarchy depth produced.
	Levels int
	// SparsifyLevels records per-level sparsification outcomes (nnz
	// before/after, skip/revert); empty when sparsification is disabled.
	SparsifyLevels []SparsifyLevelStat
	// SparsifyFallbacks counts levels the convergence guard reverted to
	// their unsparsified operators.
	SparsifyFallbacks int
	// StagedPeak is the most untruncated composed entries held at once on
	// any level. The later multipass passes keep every row they compose
	// until the level's one truncation, so it is all of them: a count, the
	// same on every run and at any worker count.
	StagedPeak int
}

// maxCoarseLU is the largest coarsest level BuildWithStats factors: a
// dense LU takes 8·n² bytes, 128 MiB at 4 096 rows. A coarsest level
// above it (coarsening stalled, or MaxLevels cut it short) keeps Coarse
// nil, and the solvers smooth there instead.
const maxCoarseLU = 4096

// BuildWithStats runs the AMG setup phase on the fine-grid matrix a and
// returns its per-stage breakdown, feeding the setup observability tables
// and benchmarks. It runs on a uint32-indexed copy of a that shares a's
// values, so a must not change while the hierarchy is in use.
func BuildWithStats(a *sparse.CSR, opt Options) (*Hierarchy, *SetupStats, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("amg: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if opt.MaxLevels < 1 {
		return nil, nil, fmt.Errorf("amg: MaxLevels must be >= 1, got %d", opt.MaxLevels)
	}
	if err := sparse.Fits[uint32](a.Rows, a.NNZ()); err != nil {
		return nil, nil, fmt.Errorf("amg: %w", err)
	}
	st := &SetupStats{}
	start := time.Now()
	h := &Hierarchy{Precision: opt.CoarsePrecision}
	t0 := time.Now()
	cur := sparse.Convert[float64, uint32](a)
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
	st.Strength = time.Since(t0)
	for lvl := 0; ; lvl++ {
		if lvl == opt.MaxLevels-1 || cur.Rows <= opt.MinCoarse {
			h.Levels = append(h.Levels, Level{Op: op.FromCSR(cur)})
			break
		}
		t0 := time.Now()
		s := StrengthGraphFunc(cur, Theta, fun)
		st.Strength += time.Since(t0)
		aggressive := lvl < opt.AggressiveLevels
		t0 = time.Now()
		var types []PointType
		if aggressive {
			types = CoarsenAggressive(s, coarsening, seed+int64(lvl))
		} else {
			types = Coarsen(s, coarsening, seed+int64(lvl))
		}
		st.Coarsen += time.Since(t0)
		nc := CountC(types)
		if nc == 0 || nc >= cur.Rows {
			// Coarsening stalled; stop here.
			h.Levels = append(h.Levels, Level{Op: op.FromCSR(cur)})
			break
		}
		it := interp
		if aggressive {
			it = Multipass
		}
		t0 = time.Now()
		p, staged := interpolate(cur, s, types, it, fun, opt.TruncMax)
		st.Interp += time.Since(t0)
		st.StagedPeak = max(st.StagedPeak, staged)
		// One transpose per level, shared by the triple product here and
		// by the level's restriction.
		t0 = time.Now()
		pt := p.Transpose()
		st.Transpose += time.Since(t0)
		t0 = time.Now()
		next, ap := sparse.RAPWith(cur, p, pt)
		st.RAP += time.Since(t0)
		h.Levels = append(h.Levels, Level{Op: op.FromCSR(cur), Itp: op.InterpFromCSR(p, pt), Types: types, AP: ap})
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
	// Factor the coarsest operator for exact solves, if it is small
	// enough to hold densely.
	t0 = time.Now()
	if cur.Rows <= maxCoarseLU {
		h.Coarse, _ = dense.Factor(cur) // nil if singular
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
		out[i] = h.Levels[i].Op.Rows()
	}
	return out
}

// geomStopRows is the largest level a stencil hierarchy hands to the
// algebraic setup: BuildOperatorWithStats coarsens geometrically while the
// coarse level has more rows. Going geometric all the way down to
// MinCoarse made AFACx diverge on even grid edges (EXPERIMENTS.md
// "Geometric levels above 4 096 rows").
const geomStopRows = 4096

// BuildOperatorWithStats is the operator-generic setup entry. A fine
// operator backed by float64 CSR takes the standard algebraic path
// (BuildWithStats on the matrix). A matrix-free stencil coarsens itself
// geometrically (op.Stencil.Coarsen), once always and again while the
// coarse level has more than geomStopRows rows; the fine matrix is never
// formed. Every geometric level k, the fine one included, is its class
// stencil A_k and class-table interpolant P_k (Op and Itp), and below them
// comes the algebraic hierarchy of the first level with at most
// geomStopRows rows. That hand-off level keeps its class stencil as Op and
// the A·P of its Galerkin product: the CSR the algebraic setup reads is
// materialized here and dropped when the setup returns.
func BuildOperatorWithStats(a op.Operator, opt Options) (*Hierarchy, *SetupStats, error) {
	if m, ok := a.(*op.CSR[float64, int]); ok {
		return BuildWithStats(m.M, opt)
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
	// The fine level coarsens always; a coarse level again while it is
	// above the stop, MinCoarse does not end the hierarchy there and
	// MaxLevels leaves room below it.
	var levels []Level
	coarse := fine
	for len(levels) == 0 || coarse.Rows() > max(geomStopRows, opt.MinCoarse) && len(levels)+2 <= opt.MaxLevels {
		itp, next, err := coarse.Coarsen()
		if err != nil {
			return nil, nil, fmt.Errorf("amg: geometric coarsening: %w", err)
		}
		levels = append(levels, Level{Op: coarse, Itp: itp})
		coarse = next
	}
	ak := coarse.CSR()
	rap := time.Since(t0)
	// Aggressive coarsening counts from the finest level, and each
	// geometric level already did one (2h) coarsening step.
	sub := opt
	sub.MaxLevels = opt.MaxLevels - len(levels)
	sub.AggressiveLevels = max(opt.AggressiveLevels-len(levels), 0)
	h, st, err := BuildWithStats(ak, sub)
	if err != nil {
		return nil, nil, err
	}
	h.Levels[0].Op = coarse
	h.Levels = append(levels, h.Levels...)
	st.RAP += rap
	st.Total = time.Since(start)
	st.Levels = len(h.Levels)
	return h, st, nil
}
