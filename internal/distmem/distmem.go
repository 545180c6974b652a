// Package distmem simulates the distributed-memory asynchronous multigrid
// the paper's conclusion sketches: "the global-res approach is the most
// natural way to implement a distributed asynchronous multigrid method
// since we do not have to compute multiple fine grid residuals."
//
// Each grid is a separate worker process (goroutine) that owns no shared
// memory; all interaction is message passing over a fault.Transport, which
// can drop, duplicate, delay and reorder messages, crash workers, and sever
// grids permanently. A single owner process holds the solution x and the
// global residual r. Workers receive residual snapshots in a newest-wins
// mailbox (stale snapshots are overwritten, the message-passing analogue of
// the bounded read delay δ of the full-async model), compute their grid's
// correction, and send it back. The owner applies corrections as they
// arrive using the residual-based update r ← r − A·c (Equations 9/10 —
// this is what makes global-res natural in distributed memory: the fine
// residual never has to be recomputed) and rebroadcasts the residual.
//
// The protocol is crash-tolerant by construction: workers are stateless
// responders (a worker's next correction index is whatever the freshest
// snapshot says was last applied for its grid), and the owner deduplicates
// by (grid, index), so messages may be lost, duplicated or replayed freely.
// An owner-side watchdog detects a stalled solve, rebroadcasts with
// exponential backoff, respawns silent workers, and — when a grid stays
// silent through repeated recovery attempts — retires it so the remaining
// grids still converge. A divergence monitor rolls the iterate back to the
// best checkpoint when the residual blows up instead of returning garbage.
package distmem

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/fault"
	"asyncmg/internal/obs"
	"asyncmg/internal/vec"
)

// Default recovery parameters (see Config).
const (
	DefaultWatchdogTimeout = 100 * time.Millisecond
	DefaultRetireAfter     = 6
	DefaultDivergeFactor   = 1e8
	// respawnAfter is the number of consecutive no-progress watchdog
	// fires after which a stalled grid's worker is respawned (the
	// recovery for a crashed worker).
	respawnAfter = 2
	// maxBackoffFactor caps the watchdog's exponential backoff at this
	// multiple of WatchdogTimeout.
	maxBackoffFactor = 16
	// saltWatchdog derives the watchdog's backoff jitter from the fault
	// seed (disjoint from the transport's per-message salts).
	saltWatchdog = 0x77d7
)

// watchdogDelay jitters one watchdog backoff interval: a deterministic
// deviate in [backoff/2, backoff) derived from (seed, fire count), so
// several solves stalled at the same moment (same wall clock, different
// seeds) rebroadcast out of lockstep instead of hammering the transport
// in synchronized waves — while any single run replays bitwise for its
// seed. fires is the solve's watchdog-fire ordinal, which both advances
// the jitter within a run and keeps it reproducible across runs.
func watchdogDelay(seed int64, fires int, backoff time.Duration) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	j := fault.Jitter01(seed, saltWatchdog, uint64(fires))
	return half + time.Duration(j*float64(half))
}

// Config parameterizes a distributed simulation.
type Config struct {
	// Method is engine.Multadd or engine.AFACx.
	Method engine.Method
	// MaxCorrections is the number of corrections each grid process
	// performs.
	MaxCorrections int
	// BroadcastEvery makes the owner rebroadcast the residual after every
	// this-many applied corrections (default 1: after each).
	BroadcastEvery int
	// MaxLead bounds how far ahead of the slowest other grid a worker may
	// run, in corrections (0 means the default of 2). The paper's
	// conclusion notes that grid-independent convergence is lost when the
	// number of corrections is unbalanced — with one cheap coarse grid and
	// one expensive fine grid, an unpaced run degenerates to "all coarse
	// corrections, then all fine corrections", which can diverge. Set
	// MaxLead to -1 for that unbounded behaviour (useful to reproduce the
	// imbalance pathology).
	MaxLead int

	// Fault configures the fault-injection transport. The zero value is a
	// perfect network.
	Fault fault.Config
	// WatchdogTimeout is how long the owner waits without applying any
	// correction before firing recovery: rebroadcast with exponential
	// backoff, then respawn, then retirement of persistently silent
	// grids. 0 selects DefaultWatchdogTimeout; negative disables the
	// watchdog (a lossy network can then hang the solve until ctx fires).
	WatchdogTimeout time.Duration
	// RetireAfter is the number of consecutive no-progress watchdog fires
	// after which a stalled grid is declared dead and retired: the owner
	// reports it as finished in subsequent snapshots (releasing the
	// MaxLead pacing bound) and stops waiting for its corrections, so the
	// remaining grids converge without it. 0 selects DefaultRetireAfter.
	RetireAfter int
	// DivergeFactor triggers the divergence monitor when ‖r‖ exceeds
	// DivergeFactor·‖b‖: the owner rolls x and r back to the best
	// checkpoint seen and rebroadcasts, instead of letting the iterate
	// blow up silently. 0 selects DefaultDivergeFactor; negative
	// disables the monitor.
	DivergeFactor float64

	// Observer, when non-nil, receives per-grid relaxation/correction
	// counts, correction staleness (corrections the owner applied between
	// taking the snapshot a correction was computed from and applying that
	// correction), residual samples per apply, recovery events, and — at
	// the end of the solve — the transport's fault counters. Nil disables
	// instrumentation.
	Observer *obs.Observer
}

// Result reports a distributed solve.
type Result struct {
	// X is the final solution.
	X []float64
	// RelRes is ‖b − A X‖₂/‖b‖₂ computed from scratch at the end.
	RelRes float64
	// Corrections[k] counts grid k's applied corrections
	// (== MaxCorrections in a fault-free run).
	Corrections []int
	// ResidualBroadcasts counts how many residual snapshots the owner sent.
	ResidualBroadcasts int
	// StaleDrops counts residual snapshots that were overwritten in a
	// worker's mailbox before being read — the message-passing measure of
	// asynchrony.
	StaleDrops int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// Diverged is set when the final iterate is non-finite or the final
	// relative residual exceeds vec.DivergedRelRes (the paper's † marker).
	Diverged bool

	// Drops, Duplicates and DelayedMsgs count messages the fault
	// transport lost, duplicated, and reorder-delayed.
	Drops, Duplicates, DelayedMsgs int
	// Crashes counts scheduled worker crashes that fired; Respawns counts
	// workers the watchdog restarted.
	Crashes, Respawns int
	// WatchdogFires counts owner watchdog timeouts (each one triggers a
	// recovery rebroadcast).
	WatchdogFires int
	// DivergenceResets counts rollbacks to the best checkpoint after a
	// residual blow-up.
	DivergenceResets int
	// Discarded counts corrections the owner rejected as duplicate, stale
	// or from a retired grid (at-least-once delivery made idempotent).
	Discarded int
	// RetiredGrids lists grids the owner declared dead and removed from
	// the termination condition and the MaxLead pacing bound.
	RetiredGrids []int
}

// actionable reports whether worker k, about to compute its it-th
// correction, may act on a snapshot with the given applied-correction
// counts: its own previous correction must be reflected, and (for bounded
// lead) no other unfinished grid may lag more than lead corrections behind.
// Grids the snapshot reports at maxCorr (finished or retired) do not bound
// the lead.
func actionable(counts []int, k, it, maxCorr, lead int) bool {
	if counts[k] < it {
		return false
	}
	if lead < 0 {
		return true
	}
	for j, c := range counts {
		if j == k || c >= maxCorr {
			continue
		}
		if it > c+lead {
			return false
		}
	}
	return true
}

// debugTrace, when non-nil, receives (applied, grid, ‖r‖) after every
// applied correction. Test-only hook.
var debugTrace func(applied, grid int, rnorm float64)

// snapshot is an owner→worker message: the residual and the per-grid
// applied-correction counts at the moment it was taken. Workers only read
// it, so one snapshot instance is shared by a whole broadcast wave.
type snapshot struct {
	// counts[j] is the number of grid j's corrections the owner had
	// applied (retired grids are reported at MaxCorrections). Worker k's
	// next correction index is counts[k]: the protocol is stateless on
	// the worker side, which is what makes crash/respawn and duplicate
	// delivery harmless.
	counts []int
	r      []float64
	// applied is the owner's total applied-correction count when the
	// snapshot was taken; echoed back in corrections so the owner can
	// measure each correction's staleness.
	applied int
	// resend marks watchdog recovery broadcasts: workers recompute and
	// resend their current correction even if they already sent it (the
	// original may have been lost).
	resend bool
}

// correction is a worker→owner message. it tags the correction index so
// the owner can deduplicate. base echoes the applied count of the
// snapshot the correction was computed from (staleness measurement).
type correction struct {
	grid, it, base int
	c              []float64
}

// Solve runs the distributed asynchronous additive solve on A x = b,
// x0 = 0. It returns an error when ctx is cancelled or its deadline passes
// before the solve finishes; faults the recovery machinery survives (drops,
// crashes, retired grids) are reported in the Result instead.
func Solve(ctx context.Context, s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	if cfg.Method != engine.Multadd && cfg.Method != engine.AFACx {
		return nil, fmt.Errorf("distmem: method %v not supported", cfg.Method)
	}
	if cfg.MaxCorrections <= 0 {
		return nil, fmt.Errorf("distmem: MaxCorrections must be positive")
	}
	n := s.LevelSize(0)
	if len(b) != n {
		return nil, fmt.Errorf("distmem: len(b) = %d, want %d", len(b), n)
	}
	bcEvery := cfg.BroadcastEvery
	if bcEvery <= 0 {
		bcEvery = 1
	}
	l := s.NumLevels()
	a := s.Ops[0]
	maxCorr := cfg.MaxCorrections
	lead := cfg.MaxLead
	if lead == 0 {
		lead = 2
	}
	wdTimeout := cfg.WatchdogTimeout
	if wdTimeout == 0 {
		wdTimeout = DefaultWatchdogTimeout
	}
	retireAfter := cfg.RetireAfter
	if retireAfter <= 0 {
		retireAfter = DefaultRetireAfter
	}
	divergeFactor := cfg.DivergeFactor
	if divergeFactor == 0 {
		divergeFactor = DefaultDivergeFactor
	}

	tr := fault.New(cfg.Fault, l)

	ictx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	shutdown := func() {
		cancel()
		tr.Close()
		wg.Wait()
	}
	defer shutdown()

	// Workers: one stateless process per grid. A worker derives its next
	// correction index from the snapshot itself, so a respawned (or
	// duplicate) worker picks up exactly where the owner's applied state
	// says the grid is.
	startWorker := func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := s.AcquireCorrWorkspace()
			defer s.ReleaseCorrWorkspace(ws)
			out := make([]float64, n)
			lastSent := -1
			for {
				var m fault.Msg
				select {
				case <-ictx.Done():
					return
				case m = <-tr.Down(k):
				}
				snap := m.Payload.(snapshot)
				it := snap.counts[k]
				if it >= maxCorr {
					return // this grid is done (or retired)
				}
				if it == lastSent && !snap.resend {
					continue // correction already in flight; await news
				}
				if !actionable(snap.counts, k, it, maxCorr, lead) {
					continue // too far ahead of a slower grid; await news
				}
				if tr.CrashNow(k, it) {
					return // scheduled crash: the process dies mid-solve
				}
				s.GridCorrection(cfg.Method, k, out, snap.r, 1, ws)
				tr.SendUp(k, fault.Msg{From: k, Seq: int64(it), Payload: correction{
					grid: k, it: it, base: snap.applied, c: append([]float64(nil), out...),
				}})
				lastSent = it
			}
		}()
	}
	start := time.Now()
	for k := 0; k < l; k++ {
		if !tr.Dead(k) {
			startWorker(k)
		}
	}

	// Owner process: applies corrections, deduplicates, rebroadcasts the
	// residual, and runs the recovery machinery.
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	ac := make([]float64, n)
	res := &Result{Corrections: make([]int, l)}
	counts := res.Corrections
	retired := make([]bool, l)
	normB := vec.Norm2(b)
	if normB == 0 {
		normB = 1
	}
	// Best-iterate checkpoint for the divergence monitor (x = 0 to start).
	bestX := make([]float64, n)
	bestR := append([]float64(nil), b...)
	bestNorm := vec.Norm2(r)
	divLimit := math.Inf(1)
	if divergeFactor > 0 {
		divLimit = divergeFactor * normB
	}

	o := cfg.Observer

	finished := func(k int) bool { return retired[k] || counts[k] >= maxCorr }
	allDone := func() bool {
		for k := 0; k < l; k++ {
			if !finished(k) {
				return false
			}
		}
		return true
	}
	var seq int64
	applied := 0
	broadcast := func(resend bool) {
		seq++
		sc := append([]int(nil), counts...)
		for j, dead := range retired {
			if dead {
				sc[j] = maxCorr // report retired grids as finished
			}
		}
		snap := snapshot{counts: sc, r: append([]float64(nil), r...), applied: applied, resend: resend}
		for k := 0; k < l; k++ {
			tr.SendDown(k, fault.Msg{From: -1, Seq: seq, Payload: snap})
			res.ResidualBroadcasts++
		}
		o.TraceEvent(obs.EvBroadcast, -1, float64(applied))
	}

	// Watchdog bookkeeping: silence[k] counts consecutive watchdog fires
	// during which unfinished grid k was the (joint) slowest and made no
	// progress — only such grids can be stalling the whole solve, so only
	// they are respawned and, ultimately, retired.
	backoff := wdTimeout
	maxBackoff := maxBackoffFactor * wdTimeout
	silence := make([]int, l)
	lastCounts := make([]int, l)
	watchdogOn := wdTimeout > 0
	timerDur := wdTimeout
	if !watchdogOn {
		timerDur = time.Duration(math.MaxInt64)
	}
	timer := time.NewTimer(timerDur)
	defer timer.Stop()
	resetTimer := func(d time.Duration, drained bool) {
		if !drained && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}

	broadcast(false)
	for !allDone() {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("distmem: solve aborted after %d applied corrections: %w",
				applied, ctx.Err())

		case m := <-tr.Up():
			c := m.Payload.(correction)
			if o != nil {
				// Message volume: every arriving correction carried its
				// payload over the transport, discarded or not. Corrections
				// are prolongated before sending, so the count is dense
				// fine-grid volume (see harness.MsgVolume for the measured
				// consequence: sparsification does not shrink it).
				nnz := int64(0)
				for _, v := range c.c {
					if v != 0 {
						nnz++
					}
				}
				o.CorrectionPayload(c.grid, nnz)
			}
			if retired[c.grid] || counts[c.grid] >= maxCorr || c.it != counts[c.grid] {
				res.Discarded++
				if o != nil {
					o.Discarded.Inc()
				}
				continue
			}
			counts[c.grid]++
			vec.Axpy(1, x, c.c)
			// Residual-based update: r ← r − A c.
			a.Apply(ac, c.c)
			vec.Axpy(-1, r, ac)
			applied++
			rnorm := vec.Norm2(r)
			// Staleness: corrections applied since the snapshot this
			// correction was computed from (excluding itself). Workers
			// relax, but attribution happens at apply time so the
			// relaxation counts reconcile with the applied-correction
			// counts — discarded duplicates are not double-counted.
			s.RecordCorrection(o, cfg.Method, c.grid, int64(applied-1-c.base))
			o.ResidualSample(c.grid, rnorm/normB)
			if debugTrace != nil {
				debugTrace(applied, c.grid, rnorm)
			}
			if rnorm > divLimit || math.IsNaN(rnorm) {
				// Divergence: roll back to the best checkpoint and force
				// every grid to recompute from the restored residual.
				copy(x, bestX)
				copy(r, bestR)
				res.DivergenceResets++
				if o != nil {
					o.DivergenceResets.Inc()
				}
				o.TraceEvent(obs.EvRollback, c.grid, rnorm/normB)
				broadcast(true)
			} else {
				if rnorm <= bestNorm {
					bestNorm = rnorm
					copy(bestX, x)
					copy(bestR, r)
				}
				// Broadcast on the configured cadence, and also whenever
				// the inbox runs dry: every worker may be blocked waiting
				// for a fresh snapshot, so withholding one would stall the
				// simulation until the watchdog fires.
				if applied%bcEvery == 0 || tr.UpBacklog() == 0 {
					broadcast(false)
				}
			}
			if watchdogOn {
				backoff = wdTimeout
				resetTimer(backoff, false)
			}

		case <-timer.C:
			res.WatchdogFires++
			if o != nil {
				o.WatchdogFires.Inc()
			}
			o.TraceEvent(obs.EvRecovery, -1, float64(applied))
			// Identify the stragglers: unfinished grids at the minimum
			// applied count that made no progress since the last fire.
			minC := math.MaxInt
			for k := 0; k < l; k++ {
				if !finished(k) && counts[k] < minC {
					minC = counts[k]
				}
			}
			for k := 0; k < l; k++ {
				if finished(k) || counts[k] != minC || counts[k] != lastCounts[k] {
					silence[k] = 0
					continue
				}
				silence[k]++
				if silence[k] == respawnAfter {
					startWorker(k)
					res.Respawns++
					if o != nil {
						o.Respawns.Inc()
					}
				}
				if silence[k] >= retireAfter {
					retired[k] = true
					res.RetiredGrids = append(res.RetiredGrids, k)
					if o != nil {
						o.RetiredGrids.Inc()
					}
					silence[k] = 0
				}
			}
			copy(lastCounts, counts)
			if !allDone() {
				broadcast(true)
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			resetTimer(watchdogDelay(cfg.Fault.Seed, res.WatchdogFires, backoff), true)
		}
	}

	// Tear down the transport and workers before reading the fault
	// counters, so delayed in-flight deliveries are fully drained (no
	// goroutine outlives Solve).
	shutdown()
	res.Elapsed = time.Since(start)
	st := tr.Stats()
	res.StaleDrops = int(st.StaleDrops)
	res.Drops = int(st.Drops)
	res.Duplicates = int(st.Duplicates)
	res.DelayedMsgs = int(st.Delayed)
	res.Crashes = int(st.Crashes)
	if o != nil {
		// Fold the transport's fault counters into the unified registry.
		o.Drops.Add(st.Drops)
		o.Duplicates.Add(st.Duplicates)
		o.Crashes.Add(st.Crashes)
		o.StaleSnapshot.Add(st.StaleDrops)
	}

	res.X = x
	res.RelRes = s.RelRes(b, x)
	res.Diverged = vec.Diverged(x, res.RelRes)
	return res, nil
}
