// Package smoother implements the four smoothers evaluated in the paper:
// weighted Jacobi (ω-Jacobi), ℓ1-Jacobi, hybrid Jacobi-Gauss-Seidel
// (hybrid JGS — inexact block Jacobi with one Gauss-Seidel sweep per block),
// and asynchronous Gauss-Seidel (async GS — hybrid JGS with immediate
// unsynchronized writes, Equation 5 of the paper).
//
// Each smoother exposes zero-initial-guess application (the Λ_k of additive
// multigrid), a general sweep (for multiplicative V-cycles), block-wise
// variants for goroutine teams, and an atomic-vector variant used by async
// GS inside the asynchronous runtime.
package smoother

import (
	"fmt"

	"asyncmg/internal/op"
	"asyncmg/internal/partition"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Kind identifies a smoother type.
type Kind int

const (
	// WJacobi is weighted (damped) Jacobi with weight Omega.
	WJacobi Kind = iota
	// L1Jacobi uses M = diag(Σ_j |a_ij|); guaranteed convergent on SPD A.
	L1Jacobi
	// HybridJGS is the hybrid Jacobi/Gauss-Seidel smoother: block Jacobi
	// across blocks with one forward Gauss-Seidel sweep inside each block.
	HybridJGS
	// AsyncGS is asynchronous Gauss-Seidel: hybrid JGS where each block's
	// updates are written immediately to shared memory and neighbouring
	// reads may observe a mix of old and new values.
	AsyncGS
	// L1HybridJGS is the ℓ1 variant of hybrid JGS (Baker, Falgout, Kolev &
	// Yang): each row's diagonal is augmented by the ℓ1 norm of its
	// off-block couplings, which guarantees convergence on SPD matrices
	// for any number of blocks — the standard remedy when plain hybrid
	// smoothing diverges with many subdomains.
	L1HybridJGS
)

func (k Kind) String() string {
	switch k {
	case WJacobi:
		return "w-jacobi"
	case L1Jacobi:
		return "l1-jacobi"
	case HybridJGS:
		return "hybrid-jgs"
	case AsyncGS:
		return "async-gs"
	case L1HybridJGS:
		return "l1-hybrid-jgs"
	}
	return "unknown"
}

// Config selects and parameterizes a smoother.
type Config struct {
	Kind Kind
	// Omega is the ω-Jacobi weight (also used to build smoothed
	// interpolants for the hybrid and async smoothers, per Section V).
	Omega float64
	// Blocks is the number of blocks for HybridJGS/AsyncGS when used
	// serially. Team-parallel callers override blocks with one per thread.
	Blocks int
}

// DefaultConfig returns the paper's default smoother: ω-Jacobi with ω = 0.9
// (the stencil test sets; the FEM sets use 0.5).
func DefaultConfig() Config { return Config{Kind: WJacobi, Omega: 0.9, Blocks: 1} }

// S is a smoother bound to an operator.
type S struct {
	Kind Kind
	// Op is the operator view every residual and product goes through.
	Op op.Operator
	// A is the float64 CSR behind Op, which the block kinds' triangular
	// solves need; nil on a matrix-free or reduced-precision operator
	// (diagonal kinds only).
	A      *sparse.CSR
	Omega  float64
	Blocks []partition.Range
	// invDiag is ω/d_i for WJacobi, 1/Σ|a_ij| for L1Jacobi; nil otherwise.
	invDiag []float64
	// l1Off is the ℓ1 norm of each row's off-block entries (L1HybridJGS
	// diagonal augmentation); nil for other kinds.
	l1Off []float64
	// delta is scratch for the hybrid block sweep.
	delta []float64
}

// Precomputed carries matrix-derived vectors a caller has already
// computed (e.g. the engine's cached hierarchy view), so repeated
// smoother construction on the same level does not rescan the matrix.
// Either field may be nil, in which case it is computed from a.
type Precomputed struct {
	// Diag is the matrix diagonal (a.Diag()).
	Diag []float64
	// RowL1 holds the row ℓ1 norms (a.RowL1Norms()).
	RowL1 []float64
}

// New builds a smoother for a. cfg.Blocks <= 0 defaults to 1 block.
func New(a *sparse.CSR, cfg Config) (*S, error) {
	return NewOperator(op.FromCSR(a), cfg, Precomputed{})
}

// diagonalScaling returns the diagonal M⁻¹ of a Jacobi-type iteration on
// a: 1/Σ_j|a_ij| for the ℓ1 form (omega is ignored), omega/a_ii otherwise.
// The row norms or diagonal come from pre when available.
func diagonalScaling(a op.Operator, l1 bool, omega float64, pre Precomputed) ([]float64, error) {
	d, what := pre.Diag, "zero diagonal at"
	if l1 {
		d, what, omega = pre.RowL1, "empty", 1
	}
	if d == nil && l1 {
		d = a.RowL1Norms()
	} else if d == nil {
		d = a.Diag()
	}
	out := make([]float64, a.Rows())
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("smoother: %s row %d", what, i)
		}
		out[i] = omega / v
	}
	return out, nil
}

// NewOperator builds a smoother bound to an arbitrary operator, reusing
// any precomputed diagonal or row-norm vectors instead of rescanning the
// matrix. The block kinds need triangular row storage, so they require an
// operator backed by a float64 CSR; matrix-free and reduced-precision
// operators support only the diagonal kinds (WJacobi, L1Jacobi).
func NewOperator(a op.Operator, cfg Config, pre Precomputed) (*S, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("smoother: operator must be square, got %dx%d", a.Rows(), a.Cols())
	}
	nb := cfg.Blocks
	if nb <= 0 {
		nb = 1
	}
	// More blocks than rows is allowed: the surplus blocks are empty
	// no-ops. Team runtimes rely on this — every thread indexes its own
	// block even on levels smaller than the team.
	s := &S{
		Kind:   cfg.Kind,
		Op:     a,
		A:      op.AsCSR(a),
		Omega:  cfg.Omega,
		Blocks: partition.SplitRows(a.Rows(), nb),
	}
	var err error
	switch cfg.Kind {
	case WJacobi:
		if cfg.Omega <= 0 || cfg.Omega > 2 {
			return nil, fmt.Errorf("smoother: ω-Jacobi weight %v outside (0, 2]", cfg.Omega)
		}
		s.invDiag, err = diagonalScaling(a, false, cfg.Omega, pre)
	case L1Jacobi:
		s.invDiag, err = diagonalScaling(a, true, 0, pre)
	case HybridJGS, AsyncGS, L1HybridJGS:
		if s.A == nil {
			return nil, fmt.Errorf("smoother: %v requires a materialized float64 matrix; matrix-free and reduced-precision operators support only the diagonal smoothers (w-jacobi, l1-jacobi)", cfg.Kind)
		}
		// The sweep scratch is allocated eagerly: team threads call the
		// block sweeps concurrently (on disjoint blocks), so lazy
		// allocation would race.
		s.delta = make([]float64, a.Rows())
		if cfg.Kind == L1HybridJGS {
			s.l1Off = s.offBlockL1()
		}
	default:
		return nil, fmt.Errorf("smoother: unknown kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// offBlockL1 returns the ℓ1 norm of each row's entries outside its own
// block (the L1HybridJGS diagonal augmentation).
func (s *S) offBlockL1() []float64 {
	a := s.A
	l1Off := make([]float64, a.Rows)
	for _, blk := range s.Blocks {
		for i := blk.Lo; i < blk.Hi; i++ {
			off := 0.0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.ColIdx[p]
				if j < blk.Lo || j >= blk.Hi {
					v := a.Vals[p]
					if v < 0 {
						v = -v
					}
					off += v
				}
			}
			l1Off[i] = off
		}
	}
	return l1Off
}

// NumBlocks returns the number of blocks of the smoother's partition.
func (s *S) NumBlocks() int { return len(s.Blocks) }

// InvDiag exposes the diagonal scaling M⁻¹ of the Jacobi-type smoothers
// (ω/a_ii for WJacobi, 1/‖a_i‖₁ for L1Jacobi) so cycle engines can fuse
// the zero-guess sweep with the post-sweep residual. Nil for the block
// smoothers, whose application is not a diagonal scaling.
func (s *S) InvDiag() []float64 {
	switch s.Kind {
	case WJacobi, L1Jacobi:
		return s.invDiag
	}
	return nil
}

// Apply computes e = Λ r, i.e. one smoothing sweep on A e = r from a zero
// initial guess, serially over all blocks. e and r must not alias.
func (s *S) Apply(e, r []float64) {
	for b := range s.Blocks {
		s.ApplyBlock(e, r, b)
	}
}

// ApplyBlock computes the block-b rows of e = Λ r from a zero initial guess.
// For the diagonal smoothers this is exact per-row scaling; for hybrid JGS
// and (serial) async GS it is a forward solve with the block's lower
// triangle. Each block touches only its own rows of e, so team threads may
// call ApplyBlock concurrently on distinct blocks.
func (s *S) ApplyBlock(e, r []float64, b int) {
	blk := s.Blocks[b]
	switch s.Kind {
	case WJacobi, L1Jacobi:
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] = s.invDiag[i] * r[i]
		}
	case HybridJGS, AsyncGS:
		// Zero initial guess: off-block couplings multiply zeros, so the
		// block lower-triangular solve is exactly one GS sweep from zero.
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] = 0
		}
		s.A.LowerTriSolveRange(e, r, blk.Lo, blk.Hi)
	case L1HybridJGS:
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] = 0
		}
		s.l1LowerSolve(e, r, blk)
	}
}

// l1LowerSolve performs the block forward substitution of L1HybridJGS:
// (L_b + D^ℓ1_b) x_b = r_b, where the diagonal is augmented by the ℓ1 norm
// of the row's off-block entries.
func (s *S) l1LowerSolve(x, b []float64, blk partition.Range) {
	a := s.A
	for i := blk.Lo; i < blk.Hi; i++ {
		sum := b[i]
		diag := s.l1Off[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j < blk.Lo {
				continue
			}
			if j > i {
				break
			}
			if j == i {
				diag += a.Vals[p]
			} else {
				sum -= a.Vals[p] * x[j]
			}
		}
		if diag != 0 {
			x[i] = sum / diag
		}
	}
}

// ApplyBlockAtomic computes the block-b rows of e = Λ r from a zero initial
// guess against a shared atomic vector, writing each relaxed value
// immediately. For AsyncGS this realizes the paper's asynchronous smoothing:
// concurrent blocks observe mixed-age values of e. The caller must zero e
// beforehand.
func (s *S) ApplyBlockAtomic(e *vec.Atomic, r []float64, b int) {
	blk := s.Blocks[b]
	switch s.Kind {
	case WJacobi, L1Jacobi:
		for i := blk.Lo; i < blk.Hi; i++ {
			e.Store(i, s.invDiag[i]*r[i])
		}
	case HybridJGS, AsyncGS, L1HybridJGS:
		for i := blk.Lo; i < blk.Hi; i++ {
			sum := r[i]
			diag := 0.0
			if s.Kind == L1HybridJGS {
				diag = s.l1Off[i]
			}
			for p := s.A.RowPtr[i]; p < s.A.RowPtr[i+1]; p++ {
				j := s.A.ColIdx[p]
				switch {
				case j == i:
					diag += s.A.Vals[p]
				case s.Kind != AsyncGS && (j < blk.Lo || j >= blk.Hi):
					// Block-Jacobi across blocks; the initial guess is
					// zero, so off-block terms vanish.
				default:
					sum -= s.A.Vals[p] * e.Load(j)
				}
			}
			if diag != 0 {
				e.Store(i, sum/diag)
			}
		}
	}
}

// Sweep performs one general smoothing sweep e ← e + M⁻¹ (r − A e). The
// residual goes through the operator view, which shards large levels and is
// bitwise-identical to the serial kernel at any worker count. scratch must
// have length A.Rows and is clobbered.
func (s *S) Sweep(e, r, scratch []float64) {
	switch s.Kind {
	case WJacobi, L1Jacobi:
		s.Op.Residual(scratch, r, e)
		for i := range e {
			e[i] += s.invDiag[i] * scratch[i]
		}
	case HybridJGS, AsyncGS:
		// Hybrid semantics: every block reads the same frozen incoming
		// iterate. Compute res = r − A e once, then add each block's
		// lower-triangular correction e_b += L_b⁻¹ res_b.
		s.Op.Residual(scratch, r, e)
		for _, blk := range s.Blocks {
			for i := blk.Lo; i < blk.Hi; i++ {
				s.delta[i] = 0
			}
			s.A.LowerTriSolveRange(s.delta, scratch, blk.Lo, blk.Hi)
			vec.AxpyRange(1, e, s.delta, blk.Lo, blk.Hi)
		}
	case L1HybridJGS:
		s.Op.Residual(scratch, r, e)
		for _, blk := range s.Blocks {
			for i := blk.Lo; i < blk.Hi; i++ {
				s.delta[i] = 0
			}
			s.l1LowerSolve(s.delta, scratch, blk)
			vec.AxpyRange(1, e, s.delta, blk.Lo, blk.Hi)
		}
	}
}

// InterpolantScaling returns the diagonal vector s such that the smoothing
// iteration matrix used to build the smoothed interpolants of Multadd is
// G = I − diag(s)·A. Per Section V of the paper, the ℓ1-Jacobi smoother uses
// its own iteration matrix (s_i = 1/Σ_j |a_ij|), while every other smoother
// uses the ω-Jacobi iteration matrix (s_i = ω/a_ii) so the interpolants stay
// sparse.
func InterpolantScaling(a *sparse.CSR, cfg Config) ([]float64, error) {
	return InterpolantScalingOp(op.FromCSR(a), cfg, Precomputed{})
}

// InterpolantScalingOp is InterpolantScaling for an arbitrary operator,
// sourcing the diagonal and row-norm vectors from pre when available so
// hierarchy-view owners do not rescan each level's matrix a second time.
func InterpolantScalingOp(a op.Operator, cfg Config, pre Precomputed) ([]float64, error) {
	omega := cfg.Omega
	if omega <= 0 {
		omega = 0.9
	}
	return diagonalScaling(a, cfg.Kind == L1Jacobi, omega, pre)
}

// SolveSweepBlockAtomic performs one relaxation sweep of block b directly on
// the system A x = b, reading and writing the shared atomic iterate x with
// per-element atomicity and no synchronization. Repeated concurrent calls
// from different blocks realize the asynchronous iteration of Equation 5 of
// the paper: each read may observe a mix of old and new values, and the
// iteration converges whenever ρ(|G|) < 1.
func (s *S) SolveSweepBlockAtomic(x *vec.Atomic, b []float64, blk int) {
	r := s.Blocks[blk]
	a := s.A
	switch s.Kind {
	case WJacobi, L1Jacobi:
		for i := r.Lo; i < r.Hi; i++ {
			sum := b[i]
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				sum -= a.Vals[p] * x.Load(a.ColIdx[p])
			}
			x.Add(i, s.invDiag[i]*sum)
		}
	case HybridJGS, AsyncGS, L1HybridJGS:
		for i := r.Lo; i < r.Hi; i++ {
			sum := b[i]
			diag := 0.0
			if s.Kind == L1HybridJGS {
				diag = s.l1Off[i]
				sum += s.l1Off[i] * x.Load(i)
			}
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.ColIdx[p]
				if j == i {
					diag += a.Vals[p]
					continue
				}
				sum -= a.Vals[p] * x.Load(j)
			}
			if diag != 0 {
				x.Store(i, sum/diag)
			}
		}
	}
}

// SweepBlockFromResidual applies the block-b part of one smoothing sweep
// given the precomputed residual res = r − A e for the frozen incoming
// iterate: e_b += M_b⁻¹ res_b. Team threads call this concurrently on
// distinct blocks after jointly computing res; combined with a barrier this
// is exactly one team-parallel hybrid sweep.
func (s *S) SweepBlockFromResidual(e, res []float64, b int) {
	blk := s.Blocks[b]
	switch s.Kind {
	case WJacobi, L1Jacobi:
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] += s.invDiag[i] * res[i]
		}
	case HybridJGS, AsyncGS:
		a := s.A
		// Forward solve L_b δ = res_b, then accumulate. Blocks write
		// disjoint slices of the shared scratch, so concurrent team calls
		// on distinct blocks are safe.
		for i := blk.Lo; i < blk.Hi; i++ {
			s.delta[i] = 0
		}
		a.LowerTriSolveRange(s.delta, res, blk.Lo, blk.Hi)
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] += s.delta[i]
		}
	case L1HybridJGS:
		for i := blk.Lo; i < blk.Hi; i++ {
			s.delta[i] = 0
		}
		s.l1LowerSolve(s.delta, res, blk)
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] += s.delta[i]
		}
	}
}

// ApplySymmetrized computes e = M̄⁻¹ r where M̄⁻¹ = M⁻ᵀ(M + Mᵀ − A)M⁻¹ is
// the symmetrized smoothing matrix of Section II.B.1 of the paper. When
// Multadd uses Λ_k = M̄_k⁻¹ it is mathematically equivalent to a symmetric
// multiplicative V(1,1)-cycle. For the diagonal smoothers (M = Mᵀ) this is
//
//	e = 2 M⁻¹ r − M⁻¹ A M⁻¹ r.
//
// scratch must have length A.Rows and is clobbered. Only the diagonal
// smoothers (WJacobi, L1Jacobi) support symmetrization; block smoothers
// panic (their M is nonsymmetric and the equivalence does not apply).
func (s *S) ApplySymmetrized(e, r, scratch []float64) {
	switch s.Kind {
	case WJacobi, L1Jacobi:
		// u = M⁻¹ r
		for i := range e {
			e[i] = s.invDiag[i] * r[i]
		}
		// scratch = A u
		s.Op.Apply(scratch, e)
		// e = 2u − M⁻¹ scratch
		for i := range e {
			e[i] = 2*e[i] - s.invDiag[i]*scratch[i]
		}
	default:
		panic("smoother: ApplySymmetrized requires a diagonal (Jacobi-type) smoother")
	}
}
