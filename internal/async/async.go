// Package async implements the paper's asynchronous additive multigrid for
// shared memory (Section IV): goroutine teams pinned to grids, the
// global-res and local-res algorithms (Algorithms 3-5), the lock-write and
// atomic-write options for racing updates of the global solution, the
// residual-based r-Multadd variant, the two stopping criteria, and — for the
// baselines of Table I and Figure 6 — team-parallel synchronous Multadd /
// AFACx and the team-parallel classical multiplicative V-cycle (Mult).
//
// The global solution x (and the global residual r, when one exists) are
// vec.Atomic vectors: every cross-team read and write is an atomic
// per-element operation, so mixed-age reads — the defining feature of the
// full-async model — occur freely while the implementation stays free of Go
// data races.
package async

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/obs"
	"asyncmg/internal/partition"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// WriteMode selects how racing updates to global vectors are performed.
type WriteMode int

const (
	// LockWrite serializes whole-vector updates behind a mutex: the team's
	// master acquires the lock, the team applies its update with a
	// parallel loop, and the master releases it.
	LockWrite WriteMode = iota
	// AtomicWrite uses per-element fetch-and-add (CAS on the float64 bit
	// pattern) inside the parallel loop, with no lock.
	AtomicWrite
)

func (w WriteMode) String() string {
	if w == AtomicWrite {
		return "atomic-write"
	}
	return "lock-write"
}

// ResMode selects how the fine-grid residual is obtained (Section IV).
type ResMode int

const (
	// LocalRes: each grid reads x and recomputes its own private copy of
	// the fine residual r^k = b − A x^k. More computation per thread,
	// better convergence.
	LocalRes ResMode = iota
	// GlobalRes: a single global residual vector is updated by all
	// threads with a non-blocking parallel loop (each thread owns a static
	// slice of rows), and grids copy it to local memory. Less computation,
	// but grids may see residual components that are very out of date.
	GlobalRes
	// ResidualRes is the residual-based update of r-Multadd: the global
	// residual is updated incrementally as r ← r − A e by the correcting
	// grid (Equations 9/10), instead of being recomputed from x.
	ResidualRes
)

func (r ResMode) String() string {
	switch r {
	case GlobalRes:
		return "global-res"
	case ResidualRes:
		return "residual-res"
	}
	return "local-res"
}

// Criterion selects the paper's stopping rule.
type Criterion int

const (
	// Criterion1: a grid exits as soon as it has done MaxCycles
	// corrections, regardless of other grids.
	Criterion1 Criterion = iota
	// Criterion2: a master thread waits until every grid has done at
	// least MaxCycles corrections and then raises a stop flag; grids keep
	// correcting until they observe the flag.
	Criterion2
)

func (c Criterion) String() string {
	if c == Criterion2 {
		return "criterion-2"
	}
	return "criterion-1"
}

// Config parameterizes a parallel solve.
type Config struct {
	// Method is engine.Multadd or engine.AFACx for the additive solvers, or
	// engine.Mult for the synchronous multiplicative baseline.
	Method engine.Method
	// Sync runs the synchronous variant: all threads share one global
	// barrier per cycle and the residual is recomputed globally, exactly
	// like the paper's "sync Multadd"/"sync AFACx" baselines. Mult is
	// always synchronous.
	Sync bool
	// Write selects lock-write or atomic-write for global updates.
	Write WriteMode
	// Res selects local-res, global-res, or the residual-based update.
	// Ignored for Sync (the residual is recomputed globally each cycle)
	// and for Mult.
	Res ResMode
	// Criterion selects the stopping rule for asynchronous runs.
	Criterion Criterion
	// Threads is the total number of goroutines; must be >= the number of
	// grids for the additive methods.
	Threads int
	// MaxCycles is t_max: the number of corrections each grid performs.
	MaxCycles int
	// RecordHistory captures the relative residual after every cycle of a
	// synchronous run (Sync or Mult) into Result.History. Asynchronous
	// runs never compute norms mid-flight — exactly as in the paper, where
	// norm computations would delay a grid — so the flag is ignored for
	// them (re-run with increasing MaxCycles instead, as the measurement
	// protocol does).
	RecordHistory bool
	// Observer, when non-nil, receives per-grid relaxation and correction
	// counts, correction-staleness observations (the age, in globally
	// applied corrections, of the residual each correction was computed
	// from), and cycle events. Recording is atomic and allocation-free;
	// nil disables instrumentation entirely.
	Observer *obs.Observer
	// Damping selects the per-grid correction-damping policy for the
	// additive methods (see DampingPolicy). The zero value applies
	// corrections undamped with no rollback guard — the historical
	// behavior, bit for bit.
	Damping DampingPolicy
	// Perturb injects deterministic read-delay and straggler adversity
	// into asynchronous runs (testing and the staleness-sweep harness);
	// the zero value injects nothing. Ignored for Sync and Mult.
	Perturb Perturb
}

// Result reports a parallel solve's outcome.
type Result struct {
	// X is the final solution iterate.
	X []float64
	// RelRes is ‖b − A X‖₂ / ‖b‖₂.
	RelRes float64
	// Corrections[k] is the number of corrections grid k performed.
	Corrections []int
	// AvgCorrects is the paper's "Corrects" column: total corrections
	// divided by the number of grids.
	AvgCorrects float64
	// Elapsed is the wall-clock solve time (setup excluded).
	Elapsed time.Duration
	// Diverged is set when the iterate contains non-finite values or the
	// final relative residual exceeds vec.DivergedRelRes — a residual
	// that blew up by ten orders of magnitude but has not overflowed yet
	// is still divergence (the paper's † marker covers both).
	Diverged bool
	// History holds ‖r‖₂/‖b‖₂ after each cycle when RecordHistory was set
	// on a synchronous run (History[0] == 1); nil otherwise.
	History []float64
	// RolledBack is set when the rollback-last defense discarded the
	// iterate: X is the initial guess (zero), RelRes is 1, and Diverged
	// is set. Requires DampingPolicy.Rollback (or a divergent finish
	// under an armed policy).
	RolledBack bool
	// FinalOmega[k] is grid k's damping factor when the solve ended
	// (all 1 with DampOff); nil for Mult.
	FinalOmega []float64
	// DampTightens / DampRelaxes count adaptive-controller events across
	// all grids: tightens lowered some ω_k, relaxes raised it back
	// toward the policy maximum.
	DampTightens, DampRelaxes int64
}

// Solve runs the configured parallel multigrid solver on A x = b, x0 = 0.
// Cancelling ctx (or passing a deadline) stops the teams at the next cycle
// boundary and returns ctx's error.
func Solve(ctx context.Context, s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	if cfg.MaxCycles <= 0 {
		return nil, fmt.Errorf("async: MaxCycles must be positive, got %d", cfg.MaxCycles)
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("async: Threads must be positive, got %d", cfg.Threads)
	}
	n := s.LevelSize(0)
	if len(b) != n {
		return nil, fmt.Errorf("async: len(b) = %d, want %d", len(b), n)
	}
	if err := cfg.Damping.validate(); err != nil {
		return nil, err
	}
	switch cfg.Method {
	case engine.Mult:
		if cfg.Damping.Mode != DampOff {
			return nil, fmt.Errorf("async: damping applies to the additive methods, not Mult")
		}
		return solveMult(ctx, s, b, cfg)
	case engine.Multadd, engine.AFACx:
		l := s.NumLevels()
		if cfg.Threads < l {
			return nil, fmt.Errorf("async: %d threads for %d grids; need at least one thread per grid", cfg.Threads, l)
		}
		if cfg.Res == ResidualRes && cfg.Method != engine.Multadd {
			return nil, fmt.Errorf("async: residual-based update (r-Multadd) requires Multadd")
		}
		if err := cfg.Perturb.validate(l); err != nil {
			return nil, err
		}
		return solveAdditive(ctx, s, b, cfg)
	default:
		return nil, fmt.Errorf("async: method %v not supported", cfg.Method)
	}
}

// solverState is the shared state of one additive parallel solve.
type solverState struct {
	ctx context.Context
	s   *engine.Engine
	cfg Config
	n   int
	b   []float64

	x *vec.Atomic // global solution
	r *vec.Atomic // global residual (global-res, residual-res, sync)

	muX, muR sync.Mutex // lock-write mutexes

	stop      atomic.Bool // criterion-2 stop flag
	abort     atomic.Bool // rollback-last mid-flight divergence abort
	corrCount []atomic.Int64
	// epoch counts corrections applied globally (all grids), maintained
	// unconditionally for asynchronous additive runs: the difference
	// between a team's write instant and its residual-read instant is
	// the empirical staleness δ, and the one δ computed after the
	// correction is applied feeds both the obs staleness histogram and
	// the damping controller.
	epoch atomic.Int64
	// damp is the resolved damping policy; auto arms the adaptive
	// controller and guard arms the refresh-time health check.
	damp        DampingPolicy
	auto, guard bool
	// guardLimit is the squared residual-slab norm past which the
	// rollback guard declares divergence ((DivergedRelRes·‖b‖₂)²).
	guardLimit float64
	// history[t+1] is the relative residual after cycle t (RecordHistory).
	history []float64
	normB   float64

	globalBarrier *Barrier // sync mode only

	grids []*gridRun
}

// gridRun is the per-grid team state.
type gridRun struct {
	rt   *solverState
	k    int // grid (level) index
	team *Barrier
	m    int // team size

	// fineRanges[tid] is this team's split of the fine grid rows.
	fineRanges []partition.Range
	// levelRanges[j][tid] splits level j's rows among the team.
	levelRanges [][]partition.Range
	// globalRanges[tid] is the team's share of the global-res parallel
	// loop: each thread owns a static slice of ALL fine rows (the OpenMP
	// static schedule of Algorithm 3 line 1 / Algorithm 5 lines 15-17).
	globalRanges []partition.Range

	// Per-level scratch shared by the team (disjoint row writes).
	lvl, lvl2 [][]float64
	// Fine-level local buffers: the team's snapshot of x and its local
	// residual.
	xk, rk []float64
	// eBuf holds the level-k correction; modBuf the AFACx modified RHS.
	eBuf, modBuf []float64
	// buf views the scratch above as the engine's correction buffers;
	// sites[tid] adapts each thread to the engine's Site interface. Both
	// are built once so the steady-state correction allocates nothing.
	buf   engine.CorrBuffers
	sites []teamSite
	// smoothers with team-sized blocks for level k and (AFACx) k+1.
	smo, smoNext *smoother.S
	// eAtom is the level-k atomic buffer used by async GS smoothing.
	eAtom *vec.Atomic
	// stopLocal is thread 0's team-consistent break decision (written
	// before a barrier, read after it).
	stopLocal bool
	// readEpoch is the global correction epoch at the instant this grid
	// last refreshed its read of the shared residual state (thread 0
	// only; r^k = b corresponds to epoch 0, the initial value).
	readEpoch int64
	// hold is this grid's read-refresh period in own-corrections (>= 1;
	// > 1 only under Perturb injection).
	hold int
	// omega is the team-visible damping factor every site applies this
	// cycle. Thread 0 publishes nextOmega into it in the pre-barrier
	// block at the top of each cycle, so teammates reading it after the
	// barrier always agree; all other controller state below is
	// thread-0 private.
	omega float64
	// nextOmega is the controller's pending factor; lastProxy and
	// healthy track the residual slab between read refreshes; tightens
	// and relaxes count controller events for Result.
	nextOmega         float64
	lastProxy         float64
	healthy           bool
	tightens, relaxes int64
}

// recordCorrection reports one applied correction of grid k to the
// configured observer: the smoothing sweeps the engine's Correction body
// performed for it (one on grid k — the coarse exact solve counts as one
// — plus, for AFACx, one on grid k+1), and the correction itself with
// its staleness.
func (rt *solverState) recordCorrection(k int, staleness int64) {
	o := rt.cfg.Observer
	if o == nil {
		return
	}
	o.Relaxed(k, 1)
	if rt.cfg.Method == engine.AFACx && k+1 < rt.s.NumLevels() {
		o.Relaxed(k+1, 1)
	}
	o.Corrected(k, staleness)
}

// solveAdditive runs Multadd/AFACx, synchronous or asynchronous.
func solveAdditive(ctx context.Context, s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	l := s.NumLevels()
	rt := &solverState{
		ctx: ctx, s: s, cfg: cfg, n: s.LevelSize(0), b: b,
		x:         vec.NewAtomic(s.LevelSize(0)),
		corrCount: make([]atomic.Int64, l),
	}
	needGlobalR := cfg.Sync || cfg.Res == GlobalRes || cfg.Res == ResidualRes
	if needGlobalR {
		rt.r = vec.NewAtomic(rt.n)
		rt.r.SetAll(b) // r = b − A·0
	}
	rt.normB = vec.Norm2(b)
	if rt.normB == 0 {
		rt.normB = 1
	}
	rt.damp = cfg.Damping.resolve(l)
	rt.auto = rt.damp.Mode == DampAuto && !cfg.Sync
	rt.guard = (rt.auto || rt.damp.Rollback) && !cfg.Sync
	rt.guardLimit = (vec.DivergedRelRes * rt.normB) * (vec.DivergedRelRes * rt.normB)
	if cfg.Sync {
		rt.globalBarrier = NewBarrier(cfg.Threads)
		if cfg.RecordHistory {
			rt.history = make([]float64, cfg.MaxCycles+1)
			rt.history[0] = 1
		}
	}

	// Thread assignment proportional to per-grid work.
	work := make([]float64, l)
	for k := 0; k < l; k++ {
		work[k] = gridWork(s, cfg, k)
	}
	counts := partition.Assign(work, cfg.Threads)

	rt.grids = make([]*gridRun, l)
	for k := 0; k < l; k++ {
		g, err := newGridRun(rt, k, counts[k])
		if err != nil {
			return nil, err
		}
		rt.grids[k] = g
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, g := range rt.grids {
		for tid := 0; tid < g.m; tid++ {
			wg.Add(1)
			go func(g *gridRun, tid int) {
				defer wg.Done()
				if cfg.Sync {
					g.runSync(tid)
				} else {
					g.runAsync(tid)
				}
			}(g, tid)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("async: solve aborted: %w", err)
	}

	x := make([]float64, rt.n)
	rt.x.Snapshot(x)
	res := make([]float64, rt.n)
	s.Ops[0].Residual(res, b, x)
	out := &Result{
		X:           x,
		RelRes:      vec.Norm2(res) / rt.normB,
		Corrections: make([]int, l),
		Elapsed:     elapsed,
		FinalOmega:  make([]float64, l),
	}
	out.Diverged = vec.Diverged(x, out.RelRes)
	total := 0
	for k := 0; k < l; k++ {
		c := int(rt.corrCount[k].Load())
		out.Corrections[k] = c
		total += c
		g := rt.grids[k]
		out.FinalOmega[k] = g.nextOmega
		out.DampTightens += g.tightens
		out.DampRelaxes += g.relaxes
		cfg.Observer.OmegaSet(k, g.nextOmega)
	}
	out.AvgCorrects = float64(total) / float64(l)
	out.History = rt.history
	if rt.damp.Rollback && (rt.abort.Load() || out.Diverged) {
		// Rollback-last: damping could not stabilise the run (or was
		// off); discard the iterate and return the initial guess, whose
		// relative residual is exactly 1.
		cfg.Observer.RolledBack(out.RelRes)
		vec.Zero(out.X)
		out.RelRes = 1
		out.Diverged = true
		out.RolledBack = true
	}
	return out, nil
}

// gridWork estimates grid k's per-correction flop count: the restriction
// and prolongation chain down to level k, the smoothing work, and the
// residual computation it is responsible for.
func gridWork(s *engine.Engine, cfg Config, k int) float64 {
	w := 0.0
	chain := s.SItp
	if cfg.Method == engine.AFACx {
		chain = s.Itp
	}
	for j := 0; j < k; j++ {
		w += 2 * float64(chain[j].NNZEquivalent()) // restrict + prolong
	}
	w += float64(s.Ops[k].NNZEquivalent()) // smoothing at level k
	if cfg.Method == engine.AFACx && k < s.NumLevels()-1 {
		// e_{k+1} smoothing plus the modified-RHS SpMV.
		w += float64(s.Ops[k+1].NNZEquivalent()) + float64(s.Itp[k].NNZEquivalent()) + float64(s.Ops[k].NNZEquivalent())
	}
	switch {
	case cfg.Sync || cfg.Res == LocalRes:
		w += float64(s.Ops[0].NNZEquivalent()) // full fine residual per grid
	default:
		w += float64(s.Ops[0].NNZEquivalent()) / float64(s.NumLevels())
	}
	return w
}

func newGridRun(rt *solverState, k, m int) (*gridRun, error) {
	if m < 1 {
		return nil, fmt.Errorf("async: grid %d received no threads", k)
	}
	s := rt.s
	g := &gridRun{rt: rt, k: k, m: m, team: NewBarrier(m)}
	g.hold = rt.cfg.Perturb.holdFor(k)
	g.omega = rt.damp.initialOmega()
	g.nextOmega = g.omega
	g.healthy = true
	g.fineRanges = partition.SplitRows(rt.n, m)
	l := s.NumLevels()
	g.levelRanges = make([][]partition.Range, l)
	g.lvl = make([][]float64, l)
	g.lvl2 = make([][]float64, l)
	for j := 0; j <= k; j++ {
		g.levelRanges[j] = partition.SplitRows(s.LevelSize(j), m)
		g.lvl[j] = make([]float64, s.LevelSize(j))
		g.lvl2[j] = make([]float64, s.LevelSize(j))
	}
	if k+1 < l {
		g.levelRanges[k+1] = partition.SplitRows(s.LevelSize(k+1), m)
		g.lvl[k+1] = make([]float64, s.LevelSize(k+1))
		g.lvl2[k+1] = make([]float64, s.LevelSize(k+1))
	}
	g.xk = make([]float64, rt.n)
	g.rk = make([]float64, rt.n)
	g.eBuf = make([]float64, s.LevelSize(k))
	g.modBuf = make([]float64, s.LevelSize(k))
	copy(g.rk, rt.b) // Algorithm 5: initialize r^k = b

	// The global-res loop splits ALL fine rows across ALL threads: this
	// team's threads own a contiguous slab determined by the team's global
	// thread offset.
	offset := 0
	for j := 0; j < k; j++ {
		offset += rt.grids[j].m
	}
	all := partition.SplitRows(rt.n, rt.cfg.Threads)
	g.globalRanges = all[offset : offset+m]

	var err error
	g.smo, err = s.NewLevelSmoother(k, m)
	if err != nil {
		return nil, fmt.Errorf("async: grid %d smoother: %w", k, err)
	}
	if rt.cfg.Method == engine.AFACx && k+1 < l {
		g.smoNext, err = s.NewLevelSmoother(k+1, m)
		if err != nil {
			return nil, fmt.Errorf("async: grid %d next-level smoother: %w", k, err)
		}
	}
	if s.Cfg.Kind == smoother.AsyncGS {
		g.eAtom = vec.NewAtomic(s.LevelSize(k))
	}
	g.buf = engine.CorrBuffers{Lvl: g.lvl, Lvl2: g.lvl2, E: g.eBuf, Mod: g.modBuf}
	g.sites = make([]teamSite, m)
	for tid := 0; tid < m; tid++ {
		g.sites[tid] = teamSite{g: g, tid: tid}
	}
	return g, nil
}
