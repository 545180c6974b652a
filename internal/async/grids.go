package async

import (
	"math"
	"runtime"
)

// runAsync is the per-thread body of the asynchronous additive solve
// (Algorithm 5). Each grid team loops: restrict its local residual to its
// level, smooth (or exact-solve on the coarsest grid), prolongate the
// correction to the fine grid, write it into the global x, read x back, and
// refresh its residual via the configured local-res / global-res /
// residual-based scheme. Teams never synchronize with each other (all
// Sync() calls involve only teammates), except through the atomic global
// vectors — that is the paper's definition of asynchronous multigrid.
func (g *gridRun) runAsync(tid int) {
	rt := g.rt
	myCount := 0
	for {
		if tid == 0 {
			switch rt.cfg.Criterion {
			case Criterion1:
				g.stopLocal = myCount >= rt.cfg.MaxCycles
			default:
				g.stopLocal = rt.stop.Load()
			}
			// Context cancellation and the rollback-last abort stop every
			// team at the next cycle boundary regardless of criterion.
			if rt.ctx.Err() != nil || rt.abort.Load() {
				g.stopLocal = true
			}
			// Publish the controller's pending ω before the barrier so
			// every teammate reads the same factor this cycle.
			g.omega = g.nextOmega
			if !g.stopLocal {
				g.stopLocal = g.pace(myCount)
			}
		}
		g.bar.Wait()
		if g.stopLocal {
			return
		}
		// Acquire the freshest view of the shared state before computing
		// the correction (on the first pass r^k = b from initialization).
		// Algorithm 5's loop reads x and refreshes r^k once per iteration;
		// cutting the cycle here rather than after the write reads the
		// newest available residual slabs, which matters under cooperative
		// scheduling. Under Perturb injection a grid refreshes only every
		// hold-th correction — the reproducible slow-reader adversity the
		// staleness sweep drives.
		refresh := myCount > 0 && myCount%g.hold == 0
		if refresh {
			g.readX(tid)
			g.acquireResidual(tid)
		}
		if tid == 0 && refresh {
			// The residual the corrections below are computed from was
			// read at this epoch (r^k = b before the first refresh, epoch
			// 0 — the initial readEpoch).
			g.readEpoch = rt.epoch.Load()
			if rt.guard {
				g.checkHealth()
			}
		}
		out := g.computeCorrection(tid, g.rk)
		g.writeX(tid, out)
		g.publishResidual(tid, out)
		myCount++
		if tid == 0 {
			// Staleness δ: corrections applied globally between our
			// residual read and our write, excluding our own — observed
			// once, after the correction is applied, so the histogram and
			// the damping controller see the same δ the correction
			// actually had.
			applied := rt.epoch.Add(1) - 1
			delta := applied - g.readEpoch
			rt.s.RecordCorrection(rt.cfg.Observer, rt.cfg.Method, g.k, delta)
			if rt.auto {
				g.adaptOmega(delta)
			}
			rt.corrCount[g.k].Store(int64(myCount))
			// Criterion 2: the master thread (grid 0, thread 0) raises the
			// stop flag once every grid has done at least MaxCycles
			// corrections.
			if rt.cfg.Criterion == Criterion2 && g.k == 0 {
				all := true
				for j := range rt.corrCount {
					if rt.corrCount[j].Load() < int64(rt.cfg.MaxCycles) {
						all = false
						break
					}
				}
				if all {
					rt.stop.Store(true)
				}
			}
		}
		// Yield between corrections. On machines with fewer cores than
		// goroutines (the paper itself oversubscribes 272 threads on 68
		// cores) run-to-completion scheduling would let a one-thread team
		// burn through every correction against a frozen residual — the
		// degenerate "unbalanced corrections" regime in which the paper
		// notes grid-independent convergence is lost. A cooperative yield
		// restores the fair interleaving a real parallel machine provides.
		runtime.Gosched()
	}
}

// maxLead bounds how many corrections a grid may run ahead of the slowest
// grid: the bounded-delay assumption of asynchronous iteration theory.
// On a machine with a core per thread the work-proportional thread
// assignment keeps the grids within a few corrections of each other and
// the bound never binds. On an oversubscribed machine the scheduler can
// leave a team unscheduled while another does every one of its
// corrections (a coarse AFACx grid doing all 80 corrections before the
// fine team starts diverges), and the bound turns that starvation back
// into the interleaving the method assumes.
const maxLead = 8

// pace holds thread 0 of a grid that has done `done` corrections while it
// leads the slowest grid by maxLead, yielding so the laggards can run.
// Grids that finished under criterion 1 hold MaxCycles corrections, so
// they never count as laggards. It reports whether the grid must stop
// instead: the context was cancelled, the rollback guard aborted, or the
// criterion-2 stop flag went up while it waited.
func (g *gridRun) pace(done int) bool {
	rt := g.rt
	for done-rt.slowest() >= maxLead {
		if rt.ctx.Err() != nil || rt.abort.Load() || rt.stop.Load() {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// slowest returns the smallest correction count over all grids.
func (rt *solverState) slowest() int {
	m := rt.corrCount[0].Load()
	for j := 1; j < len(rt.corrCount); j++ {
		m = min(m, rt.corrCount[j].Load())
	}
	return int(m)
}

// runSync is the per-thread body of the synchronous additive baselines
// ("sync Multadd" / "sync AFACx" in Table I): every cycle, all grids
// correct concurrently from the same consistent residual, then every thread
// joins a global barrier and the residual is recomputed with a global
// parallel SpMV, exactly like classical multigrid's residual update.
func (g *gridRun) runSync(tid int) {
	rt := g.rt
	for t := 0; t < rt.cfg.MaxCycles; t++ {
		// Consistent snapshot of the global residual into team-local rk.
		fr := g.ranges[0][tid]
		rt.r.LoadRange(g.rk, fr.Lo, fr.Hi)
		g.bar.Wait()
		out := g.computeCorrection(tid, g.rk)
		g.writeX(tid, out)
		rt.globalBarrier.Wait()
		// Global residual recompute: each thread owns a static slice of all
		// fine rows (OpenMP static schedule).
		gr := g.globalRanges[tid]
		rt.s.Ops[0].ResidualAtomicRange(rt.r, rt.b, rt.x, gr.Lo, gr.Hi)
		// One designated thread folds context cancellation into the stop
		// flag; the store is sequenced before the barrier every thread
		// passes below, so the post-barrier loads agree and all threads
		// break on the same cycle.
		if g.k == 0 && tid == 0 && rt.ctx.Err() != nil {
			rt.stop.Store(true)
		}
		rt.globalBarrier.Wait()
		if rt.stop.Load() {
			return
		}
		if tid == 0 {
			rt.corrCount[g.k].Store(int64(t + 1))
			// Synchronous cycles correct from a residual consistent with
			// every previously applied correction: staleness 0 by
			// construction.
			rt.s.RecordCorrection(rt.cfg.Observer, rt.cfg.Method, g.k, 0)
		}
		// Record the post-cycle residual norm. Only one thread computes it,
		// and nothing writes the global residual until every thread passes
		// the next cycle's global barrier (which the recorder must also
		// reach), so no extra synchronization is needed.
		if rt.history != nil && g.k == 0 && tid == 0 {
			sum := 0.0
			for i := 0; i < rt.n; i++ {
				v := rt.r.Load(i)
				sum += v * v
			}
			rt.history[t+1] = math.Sqrt(sum) / rt.normB
			rt.cfg.Observer.CycleDone(rt.history[t+1])
		}
	}
}

// computeCorrection performs grid k's correction from the team-local fine
// residual rfine and returns the fine-level correction vector (a team-shared
// buffer; fully populated after the internal barriers). The team must not
// reuse rfine until the next cycle. The correction math itself is the
// engine's shared implementation; every thread runs it concurrently with
// its own teamSite, and the Site barriers reproduce the team-parallel
// loop structure exactly. The grid's current damping factor scales the
// level-k correction in place (ω = 1, the undamped default, skips the
// scaling pass bit for bit); every teammate reads the same omega because
// thread 0 publishes it only in the pre-barrier block at the cycle top.
func (g *gridRun) computeCorrection(tid int, rfine []float64) []float64 {
	return g.rt.s.Correction(g.rt.cfg.Method, g.k, rfine, g.omega, &g.buf, &g.sites[tid])
}

// writeX adds the fine-level correction out into the global solution using
// the configured write mode.
func (g *gridRun) writeX(tid int, out []float64) {
	rt := g.rt
	fr := g.ranges[0][tid]
	if rt.cfg.Write == LockWrite {
		if tid == 0 {
			rt.muX.Lock()
		}
		g.bar.Wait()
		for i := fr.Lo; i < fr.Hi; i++ {
			if out[i] != 0 {
				rt.x.Store(i, rt.x.Load(i)+out[i])
			}
		}
		g.bar.Wait()
		if tid == 0 {
			rt.muX.Unlock()
		}
		return
	}
	rt.x.AddRange(out, fr.Lo, fr.Hi)
	g.bar.Wait()
}

// readX stores the current global solution into the team-local x^k. Under
// lock-write the read also takes the lock, so the copy is a consistent
// snapshot (which is what makes local-res + lock-write match the semi-async
// model, per Section IV).
func (g *gridRun) readX(tid int) {
	rt := g.rt
	fr := g.ranges[0][tid]
	if rt.cfg.Write == LockWrite {
		if tid == 0 {
			rt.muX.Lock()
		}
		g.bar.Wait()
		rt.x.LoadRange(g.xk, fr.Lo, fr.Hi)
		g.bar.Wait()
		if tid == 0 {
			rt.muX.Unlock()
		}
		return
	}
	rt.x.LoadRange(g.xk, fr.Lo, fr.Hi)
	g.bar.Wait()
}

// publishResidual propagates this grid's just-applied correction into the
// shared residual state. out is the fine-level correction. Local-res
// publishes nothing (each grid recomputes privately); global-res refreshes
// the team's static slice of the global residual with a non-blocking loop
// (Algorithm 5 lines 15-17); the residual-based mode subtracts A·e from the
// global residual (Equations 9/10).
func (g *gridRun) publishResidual(tid int, out []float64) {
	rt := g.rt
	fr := g.ranges[0][tid]
	switch rt.cfg.Res {
	case LocalRes:
		// Nothing shared to publish.
	case GlobalRes:
		// Each thread owns a static slice of ALL fine rows and refreshes
		// it from the global x; other teams' slices may be arbitrarily
		// stale — the defining weakness of global-res. "No Wait": no
		// barrier with other teams.
		gr := g.globalRanges[tid]
		rt.s.Ops[0].ResidualAtomicRange(rt.r, rt.b, rt.x, gr.Lo, gr.Hi)
	case ResidualRes:
		// r ← r − A e with the configured write mode (the A·e support
		// overlaps other grids' rows, so this is a racing update).
		ae := g.buf.Lvl[0]
		rt.s.Ops[0].ApplyRange(ae, out, fr.Lo, fr.Hi)
		g.bar.Wait()
		if rt.cfg.Write == LockWrite {
			if tid == 0 {
				rt.muR.Lock()
			}
			g.bar.Wait()
			for i := fr.Lo; i < fr.Hi; i++ {
				if ae[i] != 0 {
					rt.r.Store(i, rt.r.Load(i)-ae[i])
				}
			}
			g.bar.Wait()
			if tid == 0 {
				rt.muR.Unlock()
			}
		} else {
			for i := fr.Lo; i < fr.Hi; i++ {
				if ae[i] != 0 {
					rt.r.Add(i, -ae[i])
				}
			}
			g.bar.Wait()
		}
	}
}

// acquireResidual refreshes the team-local fine residual r^k from the
// shared state before the next correction: local-res recomputes it from the
// team's snapshot of x, the global modes copy the global residual to local
// memory (Algorithm 5 lines 13 / 18).
func (g *gridRun) acquireResidual(tid int) {
	rt := g.rt
	fr := g.ranges[0][tid]
	switch rt.cfg.Res {
	case LocalRes:
		rt.s.Ops[0].ResidualRange(g.rk, rt.b, g.xk, fr.Lo, fr.Hi)
	case GlobalRes, ResidualRes:
		rt.r.LoadRange(g.rk, fr.Lo, fr.Hi)
	}
	g.bar.Wait()
}
