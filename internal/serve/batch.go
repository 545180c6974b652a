package serve

import (
	"context"
	"sync/atomic"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/krylov"
	"asyncmg/internal/obs"
	"asyncmg/internal/sparse"
)

// batchKey identifies which requests may share one block solve: same
// hierarchy (implied by the owning entry), same method, and the same
// iteration — the cycle budget for plain cycling, or the (solver, tol,
// maxiter) triple for Krylov solves. Only identical iterations coalesce,
// so batching stays bitwise-invisible per column.
type batchKey struct {
	method  engine.Method
	cycles  int
	solver  string // "" for plain cycling, SolverPCG for block PCG
	tol     float64
	maxiter int
}

// batchResult is one member's share of a finished (block) solve.
type batchResult struct {
	x       []float64
	hist    []float64
	k       int // batch size this request rode in
	solveNS int64
	err     error
	// iters/converged report the Krylov iteration (PCG batches only).
	iters     int
	converged bool
}

type batchMember struct {
	ctx  context.Context
	rhs  []float64
	done chan batchResult // buffered: delivery never blocks on a gone client
}

// batchGroup collects same-key requests during the batching window. The
// first member arms the window timer; the group launches when the timer
// fires or the group fills to maxBatch, whichever comes first.
type batchGroup struct {
	key      batchKey
	members  []batchMember
	launched bool
	timer    *time.Timer
}

// batcher coalesces concurrent same-hierarchy solve requests into block
// (multi-RHS) solves. The block path is bitwise identical per column to
// independent serial solves, so batching is invisible to clients except
// in the "batched" response field and the throughput.
type batcher struct {
	window   time.Duration
	maxBatch int
	obs      *obs.Observer
}

// join enrolls a request in the entry's open group for key (creating one
// if needed) and returns the channel its result will arrive on.
func (bt *batcher) join(ctx context.Context, e *entry, key batchKey, rhs []float64) <-chan batchResult {
	done := make(chan batchResult, 1)
	e.bmu.Lock()
	g := e.groups[key]
	if g == nil || g.launched {
		g = &batchGroup{key: key}
		e.groups[key] = g
		if bt.window > 0 && bt.maxBatch > 1 {
			g.timer = time.AfterFunc(bt.window, func() { bt.launch(e, g) })
		}
	}
	g.members = append(g.members, batchMember{ctx: ctx, rhs: rhs, done: done})
	full := len(g.members) >= bt.maxBatch || bt.window <= 0 || bt.maxBatch <= 1
	e.bmu.Unlock()
	if full {
		bt.launch(e, g)
	}
	return done
}

// launch closes the group to new members and runs it. Idempotent: the
// window timer and the group-full path may both call it.
func (bt *batcher) launch(e *entry, g *batchGroup) {
	e.bmu.Lock()
	if g.launched {
		e.bmu.Unlock()
		return
	}
	g.launched = true
	if e.groups[g.key] == g {
		delete(e.groups, g.key)
	}
	members := g.members
	e.bmu.Unlock()
	if g.timer != nil {
		g.timer.Stop()
	}
	go bt.run(e, g.key, members)
}

func (bt *batcher) run(e *entry, key batchKey, members []batchMember) {
	k := len(members)
	if bt.obs != nil {
		bt.obs.BatchSizes.Observe(int64(k))
	}
	if key.solver == SolverPCG {
		bt.runPCG(e, key, members)
		return
	}
	start := time.Now()
	if k == 1 {
		m := members[0]
		x, hist, err := e.setup.SolveCtx(m.ctx, key.method, m.rhs, key.cycles)
		m.done <- batchResult{x: x, hist: hist, k: 1, solveNS: time.Since(start).Nanoseconds(), err: err}
		return
	}
	// The batch runs as long as any member still wants the answer: its
	// context cancels only when every member's has.
	ctx, cancel := allCancelledCtx(members)
	defer cancel()
	n := e.rows
	b := make([]float64, n*k)
	cols := make([][]float64, k)
	for c := range members {
		cols[c] = members[c].rhs
	}
	sparse.PackBlock(b, cols)
	x, hists, err := e.setup.SolveBlockCtx(ctx, key.method, b, k, key.cycles)
	ns := time.Since(start).Nanoseconds()
	for c, m := range members {
		res := batchResult{k: k, solveNS: ns, err: err}
		if err == nil {
			col := make([]float64, n)
			sparse.UnpackBlockColumn(col, x, k, c)
			res.x = col
			res.hist = hists[c]
		}
		m.done <- res
	}
}

// runPCG is the Krylov arm of the batcher: k coalesced PCG requests run
// as one block PCG whose every column is bitwise-identical to the solo
// solve the member would have run alone (the krylov block contract), so
// riding a batch never changes a client's answer.
func (bt *batcher) runPCG(e *entry, key batchKey, members []batchMember) {
	k := len(members)
	opt := krylov.DefaultOptions()
	opt.Tol = key.tol
	opt.MaxIter = key.maxiter
	opt.Observer = bt.obs
	start := time.Now()
	if k == 1 {
		m := members[0]
		res, err := soloKrylov(m.ctx, e.setup, SolverPCG, key.method, m.rhs, opt)
		m.done <- batchResult{
			x: res.X, hist: res.History, k: 1,
			solveNS: time.Since(start).Nanoseconds(), err: err,
			iters: res.Iterations, converged: res.Converged,
		}
		return
	}
	ctx, cancel := allCancelledCtx(members)
	defer cancel()
	n := e.rows
	b := make([]float64, n*k)
	cols := make([][]float64, k)
	for c := range members {
		cols[c] = members[c].rhs
	}
	sparse.PackBlock(b, cols)
	blk, err := krylov.BlockPCGCtx(ctx, e.setup, key.method, b, k, opt)
	ns := time.Since(start).Nanoseconds()
	for c, m := range members {
		res := batchResult{k: k, solveNS: ns, err: err}
		if err == nil {
			if blk.Errs[c] != nil {
				res.err = blk.Errs[c]
			} else {
				col := make([]float64, n)
				sparse.UnpackBlockColumn(col, blk.X, k, c)
				res.x = col
				res.hist = blk.Cols[c].History
				res.iters = blk.Cols[c].Iterations
				res.converged = blk.Cols[c].Converged
			}
		}
		m.done <- res
	}
}

// soloKrylov runs one AMG-preconditioned Krylov solve on a cached
// hierarchy. The plain (non-symmetrized) cycle preconditioner keeps the
// solo path bitwise-identical to the batched block path.
func soloKrylov(ctx context.Context, setup *engine.Engine, solver string, method engine.Method, b []float64, opt krylov.Options) (krylov.Result, error) {
	p := krylov.NewMGPreconditioner(setup, method)
	defer p.Release()
	opt.M = p
	if solver == SolverFGMRES {
		return krylov.FGMRESCtx(ctx, setup.Ops[0], b, opt)
	}
	return krylov.PCGCtx(ctx, setup.Ops[0], b, opt)
}

// allCancelledCtx returns a context that is cancelled once every member
// context is done (and a cancel func releasing the watchers early).
func allCancelledCtx(members []batchMember) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	var live atomic.Int64
	live.Store(int64(len(members)))
	for _, m := range members {
		go func(mc context.Context) {
			select {
			case <-mc.Done():
				if live.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}(m.ctx)
	}
	return ctx, cancel
}
