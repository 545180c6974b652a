// Block (multi-RHS) cycle path: one V-cycle over k packed right-hand
// sides, streaming every level matrix once for all k columns.
//
// No solver calls it: with the operators resident in cache a block cycle
// costs about k single cycles, so the service solves every request alone
// (EXPERIMENTS.md, "Request coalescing deleted"). BlockCycle and its
// workspaces stay only because the benchmark's
// engine.block4_cycle_ms_per_rhs probe calls them; they go with the op
// block interfaces and the sparse block kernels once that probe is
// retired.
//
// The block cycles are bitwise-identical, column by column, to k
// independent single-RHS cycles: each step is a block kernel with that
// contract (see sparse/block.go) and the coarse solve runs the same LU
// arithmetic per gathered column.
package engine

import (
	"fmt"
	"sync"

	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// BlockWorkspace holds the per-level scratch of one block cycle execution
// for a fixed column count k. Not shareable between concurrent cycles.
type BlockWorkspace struct {
	k         int
	r, e, tmp [][]float64
	// colR/colE/colS are single-column gather buffers (coarsest-level
	// sized) for the per-column coarse LU solve.
	colR, colE, colS []float64
}

// K returns the column count the workspace was built for.
func (w *BlockWorkspace) K() int { return w.k }

// NewBlockWorkspace allocates block scratch for k packed columns.
func (s *Engine) NewBlockWorkspace(k int) *BlockWorkspace {
	if k <= 0 {
		panic(fmt.Sprintf("mg: block workspace needs k >= 1, got %d", k))
	}
	l := s.NumLevels()
	w := &BlockWorkspace{
		k:   k,
		r:   make([][]float64, l),
		e:   make([][]float64, l),
		tmp: make([][]float64, l),
	}
	for lev := 0; lev < l; lev++ {
		n := s.LevelSize(lev)
		w.r[lev] = make([]float64, n*k)
		w.e[lev] = make([]float64, n*k)
		w.tmp[lev] = make([]float64, n*k)
	}
	n := s.LevelSize(l - 1)
	w.colR = make([]float64, n)
	w.colE = make([]float64, n)
	w.colS = make([]float64, n)
	return w
}

// AcquireBlockWorkspace returns a pooled block workspace for k columns;
// pair with ReleaseBlockWorkspace. Contents are unspecified.
func (s *Engine) AcquireBlockWorkspace(k int) *BlockWorkspace {
	if w, _ := s.blockPool(k).Get().(*BlockWorkspace); w != nil {
		return w
	}
	return s.NewBlockWorkspace(k)
}

// ReleaseBlockWorkspace returns w to the per-k pool. Workspaces built on a
// different engine must not be released here (level sizes would disagree);
// the pools live on the engine instance.
func (s *Engine) ReleaseBlockWorkspace(w *BlockWorkspace) {
	s.blockPool(w.k).Put(w)
}

// blockPool returns this engine's workspace pool for column count k,
// creating it on first use.
func (s *Engine) blockPool(k int) *sync.Pool {
	if p, ok := s.blockPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := s.blockPools.LoadOrStore(k, &sync.Pool{})
	return p.(*sync.Pool)
}

// blockOp returns level k's operator as its multi-RHS face; it panics on
// an operator without one (matrix-free stencils).
func (s *Engine) blockOp(k int) op.BlockOperator { return s.Ops[k].(op.BlockOperator) }

// blockItp returns the plain (or, for sbar, smoothed) interpolant of
// level pair k as its multi-RHS face; it panics on an interpolant without
// one (composed smoothed interpolants).
func (s *Engine) blockItp(k int, sbar bool) op.BlockInterp {
	if sbar {
		return s.SItp[k].(op.BlockInterp)
	}
	return s.Itp[k].(op.BlockInterp)
}

// blockScale computes e[i*k+c] = d[i] * r[i*k+c]: the zero-guess diagonal
// smoother application, column by column.
func blockScale(e, d, r []float64, k int) {
	for i, di := range d {
		ei := e[i*k : (i+1)*k]
		ri := r[i*k : (i+1)*k]
		for c := range ei {
			ei[c] = di * ri[c]
		}
	}
}

// blockScaleAdd computes e[i*k+c] += d[i] * r[i*k+c]: the diagonal
// smoother sweep update.
func blockScaleAdd(e, d, r []float64, k int) {
	for i, di := range d {
		ei := e[i*k : (i+1)*k]
		ri := r[i*k : (i+1)*k]
		for c := range ei {
			ei[c] += di * ri[c]
		}
	}
}

// blockCoarseSolve computes e = A_L⁻¹ r on the coarsest level for every
// packed column, running the exact LU arithmetic per gathered column (or
// the diagonal-smoother fallback when no factorization exists).
func (s *Engine) blockCoarseSolve(e, r []float64, k int, w *BlockWorkspace) {
	l := s.NumLevels()
	n := s.LevelSize(l - 1)
	if s.H.Coarse == nil {
		blockScale(e, s.Smo[l-1].InvDiag(), r, k)
		return
	}
	for c := 0; c < k; c++ {
		colR := w.colR[:n]
		colE := w.colE[:n]
		for i := 0; i < n; i++ {
			colR[i] = r[i*k+c]
		}
		s.H.Coarse.SolveScratch(colE, colR, w.colS)
		for i := 0; i < n; i++ {
			e[i*k+c] = colE[i]
		}
	}
}

// blockMultCycle performs one multiplicative V(1,1)-cycle on k packed
// right-hand sides, updating the packed iterate x in place. Requires
// diagonal smoothers on every level (see BlockCycle).
func (s *Engine) blockMultCycle(x, b []float64, k int, w *BlockWorkspace) {
	l := s.NumLevels()
	s.blockOp(0).ResidualBlock(w.r[0], b, x, k)
	for lev := 0; lev < l-1; lev++ {
		ak := s.blockOp(lev)
		id := s.Smo[lev].InvDiag()
		// Pre-smooth from zero guess, post-smoothing residual, restrict:
		// the block form of the fused down-leg, step for step.
		blockScale(w.e[lev], id, w.r[lev], k)
		ak.ResidualBlock(w.tmp[lev], w.r[lev], w.e[lev], k)
		s.blockItp(lev, false).ApplyTBlock(w.r[lev+1], w.tmp[lev], k)
		s.obs.Relaxed(lev, int64(k))
	}
	s.blockCoarseSolve(w.e[l-1], w.r[l-1], k, w)
	s.obs.Relaxed(l-1, int64(k))
	for lev := l - 2; lev >= 0; lev-- {
		s.blockItp(lev, false).ApplyAddBlock(w.e[lev], w.e[lev+1], k)
		// Post-smoothing sweep e += D⁻¹ (r − A e).
		s.blockOp(lev).ResidualBlock(w.tmp[lev], w.r[lev], w.e[lev], k)
		blockScaleAdd(w.e[lev], s.Smo[lev].InvDiag(), w.tmp[lev], k)
		s.obs.Relaxed(lev, int64(k))
	}
	vec.AxpyPar(1, x, w.e[0])
	s.countBlockCorrections(k)
}

// blockMultaddCycle performs one additive Multadd V-cycle on k packed
// right-hand sides, summing the corrections coarsest-first as prolongSum
// does. Requires diagonal smoothers (see BlockCycle).
func (s *Engine) blockMultaddCycle(x, b []float64, k int, w *BlockWorkspace) {
	l := s.NumLevels()
	s.blockOp(0).ResidualBlock(w.r[0], b, x, k)
	for lev := 0; lev < l-1; lev++ {
		s.blockItp(lev, true).ApplyTBlock(w.r[lev+1], w.r[lev], k)
	}
	for lev := 0; lev < l; lev++ {
		if lev == l-1 {
			s.blockCoarseSolve(w.e[lev], w.r[lev], k, w)
		} else {
			blockScale(w.e[lev], s.Smo[lev].InvDiag(), w.r[lev], k)
		}
		s.obs.Relaxed(lev, int64(k))
	}
	for lev := l - 2; lev >= 0; lev-- {
		s.blockItp(lev, true).ApplyAddBlock(w.e[lev], w.e[lev+1], k)
	}
	vec.AxpyPar(1, x, w.e[0])
	s.countBlockCorrections(k)
}

// countBlockCorrections records k applied corrections per grid (a block
// cycle is k logical cycles).
func (s *Engine) countBlockCorrections(k int) {
	if s.obs == nil {
		return
	}
	for lev := 0; lev < s.NumLevels(); lev++ {
		for c := 0; c < k; c++ {
			s.obs.Corrected(lev, 0)
		}
	}
}

// BlockCycle runs one block V-cycle of Mult or Multadd on k packed
// right-hand sides. It needs the default configuration: diagonal
// (Jacobi-type) smoothers on every level and CSR-stored operators and
// interpolants. It panics otherwise.
func (s *Engine) BlockCycle(m Method, x, b []float64, k int, w *BlockWorkspace) {
	for _, sm := range s.Smo {
		if sm.InvDiag() == nil {
			panic("mg: block cycle needs diagonal smoothers on every level")
		}
	}
	switch m {
	case Mult:
		s.blockMultCycle(x, b, k, w)
	case Multadd:
		s.blockMultaddCycle(x, b, k, w)
	default:
		panic(fmt.Sprintf("mg: method %v has no block cycle", m))
	}
}
