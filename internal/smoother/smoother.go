// Package smoother implements the four smoothers evaluated in the paper:
// weighted Jacobi (ω-Jacobi), ℓ1-Jacobi, hybrid Jacobi-Gauss-Seidel
// (hybrid JGS — inexact block Jacobi with one Gauss-Seidel sweep per block),
// and asynchronous Gauss-Seidel (async GS — hybrid JGS with immediate
// unsynchronized writes, Equation 5 of the paper).
//
// Each smoother exposes zero-initial-guess application (the Λ_k of additive
// multigrid), a general sweep (for multiplicative V-cycles), block-wise
// variants for goroutine teams, and an atomic-vector sweep used by async
// GS inside the asynchronous runtime.
//
// Every smoother runs on the op.Operator interface alone, so each kind
// works on every operator the hierarchy holds: a float64 or float32 CSR
// level and a matrix-free class stencil. The block kinds' row walks (the
// block forward substitution, the atomic sweep and the off-block ℓ1 norms)
// are the operator's own Range kernels, written once per operator type.
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
	// Op is the operator every sweep goes through: its residuals and
	// products, and the block kinds' row walks.
	Op     op.Operator
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

// New builds a smoother for a. cfg.Blocks <= 0 defaults to 1 block.
func New(a *sparse.CSR, cfg Config) (*S, error) {
	return NewOperator(op.FromCSR(a), cfg)
}

// diagonalScaling returns the diagonal M⁻¹ of a Jacobi-type iteration on
// a: 1/Σ_j|a_ij| for the ℓ1 form (omega is ignored), omega/a_ii otherwise.
func diagonalScaling(a op.Operator, l1 bool, omega float64) ([]float64, error) {
	d, what := a.Diag, "zero diagonal at"
	if l1 {
		d, what, omega = a.RowL1Norms, "empty", 1
	}
	out := make([]float64, a.Rows())
	for i, v := range d() {
		if v == 0 {
			return nil, fmt.Errorf("smoother: %s row %d", what, i)
		}
		out[i] = omega / v
	}
	return out, nil
}

// NewOperator builds a smoother of any kind bound to an arbitrary square
// operator.
func NewOperator(a op.Operator, cfg Config) (*S, error) {
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
		Omega:  cfg.Omega,
		Blocks: partition.SplitRows(a.Rows(), nb),
	}
	var err error
	switch cfg.Kind {
	case WJacobi:
		if cfg.Omega <= 0 || cfg.Omega > 2 {
			return nil, fmt.Errorf("smoother: ω-Jacobi weight %v outside (0, 2]", cfg.Omega)
		}
		s.invDiag, err = diagonalScaling(a, false, cfg.Omega)
	case L1Jacobi:
		s.invDiag, err = diagonalScaling(a, true, 0)
	case HybridJGS, AsyncGS, L1HybridJGS:
		// The sweep scratch is allocated eagerly: team threads call the
		// block sweeps concurrently (on disjoint blocks), so lazy
		// allocation would race.
		s.delta = make([]float64, a.Rows())
		if cfg.Kind == L1HybridJGS {
			s.l1Off = make([]float64, a.Rows())
			for _, blk := range s.Blocks {
				a.OffBlockL1Range(s.l1Off, blk.Lo, blk.Hi)
			}
		}
	default:
		return nil, fmt.Errorf("smoother: unknown kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// InvDiag exposes the diagonal scaling M⁻¹ of the Jacobi-type smoothers
// (ω/a_ii for WJacobi, 1/‖a_i‖₁ for L1Jacobi); nil for the block
// smoothers, whose application is not a diagonal scaling. The engine
// builds each level's smoothed interpolant P̄ = (I − M⁻¹A)P from it, and
// the benchmark's sparse.fused_jrr_over_unfused probe reads it too.
func (s *S) InvDiag() []float64 {
	switch s.Kind {
	case WJacobi, L1Jacobi:
		return s.invDiag
	}
	return nil
}

// Apply computes e = Λ r, i.e. one smoothing sweep on A e = r from a zero
// initial guess, serially over all blocks. It overwrites e, whatever e
// held before; e and r must not alias.
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
	case HybridJGS, AsyncGS, L1HybridJGS:
		// Zero initial guess: off-block couplings multiply zeros, so the
		// block lower-triangular solve is exactly one GS sweep from zero.
		for i := blk.Lo; i < blk.Hi; i++ {
			e[i] = 0
		}
		s.Op.LowerSolveRange(e, r, s.l1Off, blk.Lo, blk.Hi)
	}
}

// Sweep performs one general smoothing sweep e ← e + M⁻¹ (r − A e): the
// residual of the frozen incoming iterate once, through the operator view
// (which shards large levels, bitwise-identical to the serial kernel at any
// worker count), then every block's SweepBlockFromResidual. scratch must
// have length A.Rows and is clobbered.
func (s *S) Sweep(e, r, scratch []float64) {
	s.Op.Residual(scratch, r, e)
	for b := range s.Blocks {
		s.SweepBlockFromResidual(e, scratch, b)
	}
}

// InterpolantScalingOp returns the diagonal vector s such that the
// smoothing iteration matrix used to build the smoothed interpolants of
// Multadd is G = I − diag(s)·A. Per Section V of the paper, the ℓ1-Jacobi
// smoother uses its own iteration matrix (s_i = 1/Σ_j |a_ij|), while every
// other smoother uses the ω-Jacobi iteration matrix (s_i = ω/a_ii) so the
// interpolants stay sparse. For the Jacobi kinds it equals the
// smoother's InvDiag bit for bit.
func InterpolantScalingOp(a op.Operator, cfg Config) ([]float64, error) {
	omega := cfg.Omega
	if omega <= 0 {
		omega = 0.9
	}
	return diagonalScaling(a, cfg.Kind == L1Jacobi, omega)
}

// SweepBlockAtomic performs one asynchronous Gauss-Seidel sweep (AsyncGS)
// of block b on A x = b in place, reading and writing the shared atomic
// iterate x with per-element atomicity and no synchronization: each row
// reads its neighbours' current values, whether another block has already
// written them or not. Repeated concurrent calls from different blocks
// realize the asynchronous iteration of Equation 5 of the paper, which
// converges whenever ρ(|G|) < 1; from x = 0 one call per block is the
// zero-guess smoothing application e = Λ r.
func (s *S) SweepBlockAtomic(x *vec.Atomic, b []float64, blk int) {
	r := s.Blocks[blk]
	s.Op.GaussSeidelAtomicRange(x, b, r.Lo, r.Hi)
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
	case HybridJGS, AsyncGS, L1HybridJGS:
		// Forward solve L_b δ = res_b, then accumulate. Blocks write
		// disjoint slices of the shared scratch, so concurrent team calls
		// on distinct blocks are safe.
		for i := blk.Lo; i < blk.Hi; i++ {
			s.delta[i] = 0
		}
		s.Op.LowerSolveRange(s.delta, res, s.l1Off, blk.Lo, blk.Hi)
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
