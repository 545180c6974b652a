package krylov

import (
	"context"
	"fmt"
	"math"
	"sync"

	"asyncmg/internal/engine"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/vec"
)

// BlockResult reports a block PCG solve of k packed right-hand sides.
type BlockResult struct {
	// X is the packed iterate (row-major, k columns, like the input b).
	X []float64
	// Cols holds per-column iteration stats and histories; Cols[c].X is
	// nil — unpack columns from X (sparse.UnpackBlockColumn).
	Cols []Result
	// Errs[c] is ErrBreakdown when column c hit a breakdown (it is then
	// frozen where the single-RHS solver would have returned the error),
	// nil otherwise.
	Errs []error
}

// BlockPCG is BlockPCGCtx without cancellation.
func BlockPCG(s *engine.Engine, m engine.Method, b []float64, k int, opt Options) (*BlockResult, error) {
	return BlockPCGCtx(context.Background(), s, m, b, k, opt)
}

// BlockPCGCtx runs k preconditioned CG solves on packed right-hand sides
// b (len n*k, row-major) in lockstep, preconditioned by one block cycle
// of method m from a zero guess on setup s — the multi-RHS pipeline the
// serve batcher coalesces concurrent same-hierarchy PCG requests into.
// Each level matrix streams once per iteration for all k columns, and by
// the block-kernel contracts every column of the result is
// bitwise-identical to a single-RHS PCGCtx on that column with an
// MGPreconditioner of the same method: elementwise updates are masked
// per column, reductions accumulate per column in row order (the serial
// Dot/Norm2 order), and converged or broken-down columns freeze exactly
// where the single-RHS solver would have stopped.
//
// Requires s.CanBlockCycle(m) and a fine-level operator with the
// multi-RHS product capability (op.BlockApplier). Options.M, Options.X
// and Options.History are ignored. Cancelling ctx stops at the next
// iteration boundary, returning the partial result with ctx's error.
func BlockPCGCtx(ctx context.Context, s *engine.Engine, m engine.Method, b []float64, k int, opt Options) (*BlockResult, error) {
	n := s.LevelSize(0)
	if k <= 0 || len(b) != n*k {
		return nil, fmt.Errorf("krylov: block solve needs len(b) == %d*%d, got %d", n, k, len(b))
	}
	if opt.MaxIter <= 0 {
		return nil, fmt.Errorf("krylov: MaxIter must be positive")
	}
	if !s.CanBlockCycle(m) {
		return nil, fmt.Errorf("krylov: method %v has no block cycle path on this setup", m)
	}
	ba, ok := s.Ops[0].(op.BlockApplier)
	if !ok {
		return nil, fmt.Errorf("krylov: fine operator %T has no block apply", s.Ops[0])
	}

	ws := acquireBlockScratch()
	defer releaseBlockScratch(ws)
	ws.ensure(n, k)
	r, z, p, ap, col := ws.r, ws.z, ws.p, ws.ap, ws.col
	rz, pap, nb, alpha := ws.rz, ws.pap, ws.nb, ws.alpha
	act := ws.act

	bw := s.AcquireBlockWorkspace(k)
	defer s.ReleaseBlockWorkspace(bw)

	res := &BlockResult{
		X:    make([]float64, n*k),
		Cols: make([]Result, k),
		Errs: make([]error, k),
	}
	hists := make([][]float64, k)
	conv := make([]bool, k)
	active := 0
	for c := 0; c < k; c++ {
		gatherColumn(col, b, k, c)
		nb[c] = vec.Norm2(col)
		if nb[c] == 0 {
			hists[c] = []float64{0}
			conv[c] = true
			act[c] = false
			continue
		}
		hists[c] = make([]float64, 1, opt.MaxIter+1)
		hists[c][0] = 1
		act[c] = true
		active++
	}

	copy(r, b)
	s.BlockPreconditionCycle(m, z, r, k, bw)
	copy(p, z)
	dotBlock(rz, r, z, k, act)
	for it := 0; it < opt.MaxIter && active > 0; it++ {
		if err := ctx.Err(); err != nil {
			finishBlock(res, hists, conv, opt)
			return res, err
		}
		ba.ApplyBlock(ap, p, k)
		dotBlock(pap, p, ap, k, act)
		for c := 0; c < k; c++ {
			if !act[c] {
				alpha[c] = 0
				continue
			}
			if pap[c] <= 0 || math.IsNaN(pap[c]) {
				res.Errs[c] = ErrBreakdown
				opt.Observer.KrylovBreakdown()
				act[c] = false
				alpha[c] = 0
				active--
				continue
			}
			alpha[c] = rz[c] / pap[c]
		}
		blockAxpy(alpha, res.X, p, k, act)
		blockAxpyNeg(alpha, r, ap, k, act)
		for c := 0; c < k; c++ {
			if !act[c] {
				continue
			}
			gatherColumn(col, r, k, c)
			rel := vec.Norm2(col) / nb[c]
			hists[c] = append(hists[c], rel)
			opt.Observer.IterationDone(rel)
			if rel < opt.Tol {
				conv[c] = true
				act[c] = false
				active--
			}
		}
		if active == 0 {
			break
		}
		s.BlockPreconditionCycle(m, z, r, k, bw)
		dotBlock(pap, r, z, k, act) // pap reused as rzNew
		for c := 0; c < k; c++ {
			if !act[c] {
				alpha[c] = 0
				continue
			}
			if math.IsNaN(pap[c]) {
				res.Errs[c] = ErrBreakdown
				opt.Observer.KrylovBreakdown()
				act[c] = false
				alpha[c] = 0
				active--
				continue
			}
			alpha[c] = pap[c] / rz[c] // beta
			rz[c] = pap[c]
		}
		blockXpay(alpha, p, z, k, act)
	}
	finishBlock(res, hists, conv, opt)
	return res, nil
}

// finishBlock fills the per-column Results from the histories.
func finishBlock(res *BlockResult, hists [][]float64, conv []bool, opt Options) {
	for c := range res.Cols {
		h := hists[c]
		res.Cols[c] = Result{
			Iterations: len(h) - 1,
			RelRes:     h[len(h)-1],
			History:    h,
			Converged:  conv[c],
		}
		if res.Errs[c] == nil {
			opt.Observer.KrylovSolved("pcg", conv[c])
		}
	}
}

// gatherColumn copies column c of the packed block v into dst (len n), so
// the serial reductions see the exact element order of a single-RHS solve.
func gatherColumn(dst, v []float64, k, c int) {
	for i := range dst {
		dst[i] = v[i*k+c]
	}
}

// dotBlock accumulates per-column inner products of two packed blocks in
// row order — the summation order of the serial vec.Dot on each gathered
// column. Inactive columns keep their previous value.
func dotBlock(dst, x, y []float64, k int, act []bool) {
	for c := 0; c < k; c++ {
		if act[c] {
			dst[c] = 0
		}
	}
	n := len(x) / k
	for i := 0; i < n; i++ {
		base := i * k
		for c := 0; c < k; c++ {
			if act[c] {
				dst[c] += x[base+c] * y[base+c]
			}
		}
	}
}

// ---- sharded per-column elementwise kernels ----

// blockVecKernel shards the masked per-column axpy/xpay updates over
// rows; elementwise, so bitwise-identical to the serial loop at any
// worker count.
type blockVecKernel struct {
	mode int // 0: y += a_c*x, 1: y -= a_c*x, 2: y = x + a_c*y
	coef []float64
	y, x []float64
	k    int
	act  []bool
}

func (kn *blockVecKernel) Do(_, lo, hi int) {
	k := kn.k
	switch kn.mode {
	case 0:
		for i := lo; i < hi; i++ {
			base := i * k
			for c := 0; c < k; c++ {
				if kn.act[c] {
					kn.y[base+c] += kn.coef[c] * kn.x[base+c]
				}
			}
		}
	case 1:
		for i := lo; i < hi; i++ {
			base := i * k
			for c := 0; c < k; c++ {
				if kn.act[c] {
					kn.y[base+c] -= kn.coef[c] * kn.x[base+c]
				}
			}
		}
	case 2:
		for i := lo; i < hi; i++ {
			base := i * k
			for c := 0; c < k; c++ {
				if kn.act[c] {
					kn.y[base+c] = kn.x[base+c] + kn.coef[c]*kn.y[base+c]
				}
			}
		}
	}
}

var blockVecPool = sync.Pool{New: func() any { return new(blockVecKernel) }}

func runBlockVec(mode int, coef, y, x []float64, k int, act []bool) {
	n := len(y) / k
	kn := blockVecPool.Get().(*blockVecKernel)
	kn.mode, kn.coef, kn.y, kn.x, kn.k, kn.act = mode, coef, y, x, k, act
	if !par.Par(len(y)) {
		kn.Do(0, 0, n)
	} else {
		par.Default().Run(n, kn)
	}
	kn.coef, kn.y, kn.x, kn.act = nil, nil, nil, nil
	blockVecPool.Put(kn)
}

// blockAxpy computes y[·,c] += alpha[c]·x[·,c] for active columns. With
// the solo update y += alpha*x (AxpyPar) it shares the exact per-element
// arithmetic.
func blockAxpy(alpha, y, x []float64, k int, act []bool) { runBlockVec(0, alpha, y, x, k, act) }

// blockAxpyNeg computes y[·,c] -= alpha[c]·x[·,c] for active columns.
// The solo solver calls AxpyPar(-alpha, ...): y[i] += (-alpha)*x[i].
// IEEE-754 multiplication satisfies (-a)*x == -(a*x) exactly, and
// y + (-t) == y - t, so the subtraction form is bitwise-identical.
func blockAxpyNeg(alpha, y, x []float64, k int, act []bool) { runBlockVec(1, alpha, y, x, k, act) }

// blockXpay computes y[·,c] = x[·,c] + beta[c]·y[·,c] for active columns
// (the search-direction update, XpayPar per column).
func blockXpay(beta, y, x []float64, k int, act []bool) { runBlockVec(2, beta, y, x, k, act) }

// blockScratch pools the packed working vectors of BlockPCGCtx.
type blockScratch struct {
	r, z, p, ap, col   []float64
	rz, pap, nb, alpha []float64
	act                []bool
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func (s *blockScratch) ensure(n, k int) {
	s.r = grow(s.r, n*k)
	s.z = grow(s.z, n*k)
	s.p = grow(s.p, n*k)
	s.ap = grow(s.ap, n*k)
	s.col = grow(s.col, n)
	s.rz = grow(s.rz, k)
	s.pap = grow(s.pap, k)
	s.nb = grow(s.nb, k)
	s.alpha = grow(s.alpha, k)
	if cap(s.act) < k {
		s.act = make([]bool, k)
	}
	s.act = s.act[:k]
}

func acquireBlockScratch() *blockScratch  { return blockScratchPool.Get().(*blockScratch) }
func releaseBlockScratch(s *blockScratch) { blockScratchPool.Put(s) }
