package obs

import (
	"io"
	"time"

	"asyncmg/internal/par"
)

// Observer is the per-solve metrics sink the solvers report into. Every
// recording method is safe on a nil receiver, so the engine, the async
// teams, the distmem owner/workers, the §III models and the Krylov loop
// thread one *Observer unconditionally; a nil observer costs one branch
// per event.
//
// The well-known instruments are exported fields for allocation-free hot
// path access; they are also registered (together with the par
// worker-pool callbacks) in Registry, so one WriteText call exposes the
// whole signal catalog.
type Observer struct {
	// Registry holds every instrument below plus the worker-pool
	// callbacks, for text exposition.
	Registry *Registry

	// Relaxations counts smoothing sweeps per grid (level): the x-axis
	// quantity of the paper's Figures 4-6 ("relative residual vs
	// relaxations"). One coarse exact solve counts as one relaxation on
	// the coarsest grid.
	Relaxations *GridCounters
	// Corrections counts applied corrections per grid (the paper's
	// "Corrects" column).
	Corrections *GridCounters
	// Staleness is the age, in globally applied corrections (sweeps), of
	// the residual information each applied correction was computed from —
	// the empirical read delay δ of the §III models.
	Staleness *Histogram
	// CycleResiduals is the count of residual-norm samples recorded on
	// the trace (synchronous cycles, CG iterations, distmem applies).
	CycleResiduals *Counter

	// Omega is each grid's current damping factor ω_k in milli-units
	// (1000 = undamped), set by the async adaptive-damping controller.
	Omega *GridGauges
	// DampTightens / DampRelaxes count controller events per grid: a
	// tighten lowers ω_k (stale reads or degrading residual history), a
	// relax raises it back toward 1 as reads freshen.
	DampTightens, DampRelaxes *GridCounters
	// Rollbacks counts asynchronous solves whose iterate was discarded
	// by the rollback-last divergence defense.
	Rollbacks *Counter

	// Faults unifies the fault/recovery counters of the distmem solver
	// under the registry (mirrors of distmem.Result's counters).
	Drops, Duplicates, Crashes, Respawns   *Counter
	WatchdogFires, DivergenceResets        *Counter
	Discarded, RetiredGrids, StaleSnapshot *Counter

	// SetupBuilds counts AMG setup phases recorded through SetupDone; the
	// *NS counters accumulate the per-stage wall time (nanoseconds) of
	// those setups, matching amg.SetupStats stage for stage (the cached
	// Pᵀ build and the Galerkin triple product are separate stages).
	SetupBuilds                    *Counter
	SetupTotalNS, SetupStrengthNS  *Counter
	SetupCoarsenNS, SetupInterpNS  *Counter
	SetupTransposeNS, SetupRAPNS   *Counter
	SetupFactorNS, SetupSparsifyNS *Counter
	// Sparsification-guard outcomes recorded through Sparsified: levels
	// that kept a sparsified operator, total nonzeros dropped from coarse
	// operators, and levels the convergence guard reverted.
	SparsifyLevels, SparsifyDropped *Counter
	SparsifyFallbacks               *Counter

	// SentNNZ accumulates, per grid, the nonzero payload volume of
	// correction messages the distmem workers sent to the owner — the
	// message-volume signal coarse-operator sparsification shrinks.
	SentNNZ *GridCounters

	// Krylov-subsystem counters (package krylov): iterations across all
	// solver kinds, completed PCG and FGMRES solves, solves that reached
	// tolerance, and breakdowns (non-SPD operator or preconditioner
	// detected mid-solve). Zero-valued for pure cycling workloads.
	KrylovIterations                   *Counter
	KrylovPCGSolves, KrylovFGMRESolves *Counter
	KrylovConverged, KrylovBreakdowns  *Counter

	// Serving counters of the solver service (package serve): hierarchy
	// setup-cache traffic, admission-queue depth, and requests rejected by
	// admission control (backpressure or drain). Zero-valued and harmless
	// for non-serving solves.
	CacheHits, CacheMisses, CacheEvictions *Counter
	QueueDepth                             *Gauge
	Rejected, Requests                     *Counter
	// Warms counts replication warm requests a node served (package
	// serve's /internal/warm, where the cluster router pushes a replay
	// of a routed request).
	Warms *Counter

	// Cluster routing counters (package cluster): solves forwarded to
	// nodes, 429 retries honoring Retry-After, hedged requests launched
	// against a replica (and the hedges that won), failovers to the next
	// owner after a node failure, full-partition fallbacks to the local
	// engine, per-node circuit-breaker transitions, ring rebuilds driven
	// by membership changes, replica warm pushes, and failed health
	// probes. Zero-valued and harmless outside a cluster router.
	RouteForwards, RouteRetries         *Counter
	RouteHedges, RouteHedgeWins         *Counter
	RouteFailovers, RouteLocalFallbacks *Counter
	BreakerOpens, BreakerRejects        *Counter
	RingRebuilds, ReplicaWarms          *Counter
	ProbeFailures                       *Counter

	// Trace is the optional bounded event timeline (nil unless the
	// observer was built WithTrace).
	Trace *Tracer
}

// New builds an observer for a solve over `grids` grids (hierarchy
// levels). Pass the hierarchy depth; out-of-range grid indices are
// dropped, so an over-estimate is safe.
func New(grids int) *Observer {
	r := NewRegistry()
	o := &Observer{
		Registry:            r,
		Relaxations:         r.NewGridCounters("grid_relaxations_total", grids),
		Corrections:         r.NewGridCounters("grid_corrections_total", grids),
		Staleness:           r.NewHistogram("staleness_sweeps", DefaultStalenessBounds()),
		CycleResiduals:      r.NewCounter("residual_samples_total"),
		Omega:               r.NewGridGauges("damping_omega_milli", grids),
		DampTightens:        r.NewGridCounters("damping_tightens_total", grids),
		DampRelaxes:         r.NewGridCounters("damping_relaxes_total", grids),
		Rollbacks:           r.NewCounter("async_rollbacks_total"),
		Drops:               r.NewCounter("fault_drops_total"),
		Duplicates:          r.NewCounter("fault_duplicates_total"),
		Crashes:             r.NewCounter("fault_crashes_total"),
		Respawns:            r.NewCounter("recovery_respawns_total"),
		WatchdogFires:       r.NewCounter("recovery_watchdog_fires_total"),
		DivergenceResets:    r.NewCounter("recovery_divergence_resets_total"),
		Discarded:           r.NewCounter("recovery_discarded_total"),
		RetiredGrids:        r.NewCounter("recovery_retired_grids_total"),
		StaleSnapshot:       r.NewCounter("stale_snapshot_drops_total"),
		SetupBuilds:         r.NewCounter("setup_builds_total"),
		SetupTotalNS:        r.NewCounter("setup_total_ns_total"),
		SetupStrengthNS:     r.NewCounter("setup_strength_ns_total"),
		SetupCoarsenNS:      r.NewCounter("setup_coarsen_ns_total"),
		SetupInterpNS:       r.NewCounter("setup_interp_ns_total"),
		SetupTransposeNS:    r.NewCounter("setup_transpose_ns_total"),
		SetupRAPNS:          r.NewCounter("setup_rap_ns_total"),
		SetupFactorNS:       r.NewCounter("setup_factor_ns_total"),
		SetupSparsifyNS:     r.NewCounter("setup_sparsify_ns_total"),
		SparsifyLevels:      r.NewCounter("sparsify_levels_total"),
		SparsifyDropped:     r.NewCounter("sparsify_dropped_nnz_total"),
		SparsifyFallbacks:   r.NewCounter("sparsify_fallbacks_total"),
		SentNNZ:             r.NewGridCounters("distmem_sent_nnz_total", grids),
		KrylovIterations:    r.NewCounter("krylov_iterations_total"),
		KrylovPCGSolves:     r.NewCounter("krylov_pcg_solves_total"),
		KrylovFGMRESolves:   r.NewCounter("krylov_fgmres_solves_total"),
		KrylovConverged:     r.NewCounter("krylov_converged_total"),
		KrylovBreakdowns:    r.NewCounter("krylov_breakdowns_total"),
		CacheHits:           r.NewCounter("serve_cache_hits_total"),
		CacheMisses:         r.NewCounter("serve_cache_misses_total"),
		CacheEvictions:      r.NewCounter("serve_cache_evictions_total"),
		QueueDepth:          r.NewGauge("serve_queue_depth"),
		Rejected:            r.NewCounter("serve_rejected_total"),
		Requests:            r.NewCounter("serve_requests_total"),
		Warms:               r.NewCounter("serve_warms_total"),
		RouteForwards:       r.NewCounter("cluster_forwards_total"),
		RouteRetries:        r.NewCounter("cluster_retries_total"),
		RouteHedges:         r.NewCounter("cluster_hedges_total"),
		RouteHedgeWins:      r.NewCounter("cluster_hedge_wins_total"),
		RouteFailovers:      r.NewCounter("cluster_failovers_total"),
		RouteLocalFallbacks: r.NewCounter("cluster_local_fallbacks_total"),
		BreakerOpens:        r.NewCounter("cluster_breaker_opens_total"),
		BreakerRejects:      r.NewCounter("cluster_breaker_rejects_total"),
		RingRebuilds:        r.NewCounter("cluster_ring_rebuilds_total"),
		ReplicaWarms:        r.NewCounter("cluster_replica_warms_total"),
		ProbeFailures:       r.NewCounter("cluster_probe_failures_total"),
	}
	// Worker-pool signals: callbacks folding par's package-level atomics
	// into this registry at exposition time.
	r.NewCallback("pool_dispatches_total", func() int64 { return par.ReadStats().Dispatches })
	r.NewCallback("pool_serial_kernels_total", func() int64 { return par.ReadStats().Serial })
	r.NewCallback("pool_queue_depth", func() int64 { return par.ReadStats().QueueDepth })
	r.NewCallback("pool_queue_depth_max", func() int64 { return par.ReadStats().MaxQueueDepth })
	r.NewCallback("pool_busy_ns_total", func() int64 { return par.ReadStats().BusyNS })
	return o
}

// WithTrace attaches a bounded event tracer retaining the last `capacity`
// events and returns the observer for chaining.
func (o *Observer) WithTrace(capacity int) *Observer {
	if o != nil {
		o.Trace = NewTracer(capacity)
	}
	return o
}

// ---- nil-safe recording methods (the solver-facing API) ----

// Relaxed records `sweeps` smoothing sweeps on grid k.
func (o *Observer) Relaxed(k int, sweeps int64) {
	if o == nil {
		return
	}
	o.Relaxations.Add(k, sweeps)
}

// Corrected records one applied correction of grid k with the given
// staleness (age of its residual information in globally applied
// corrections; pass -1 when unknown, which skips the histogram).
func (o *Observer) Corrected(k int, staleness int64) {
	if o == nil {
		return
	}
	o.Corrections.Inc(k)
	if staleness >= 0 {
		o.Staleness.Observe(staleness)
	}
	o.Trace.Record(EvCorrection, k, float64(staleness))
}

// OmegaSet records grid k's current damping factor (stored in
// milli-units so the integer gauge keeps three decimals).
func (o *Observer) OmegaSet(k int, omega float64) {
	if o == nil {
		return
	}
	o.Omega.Set(k, int64(omega*1000))
}

// DampTightened records one controller tighten of grid k's ω (newOmega
// is the factor after the move).
func (o *Observer) DampTightened(k int, newOmega float64) {
	if o == nil {
		return
	}
	o.DampTightens.Inc(k)
	o.Omega.Set(k, int64(newOmega*1000))
	o.Trace.Record(EvDamp, k, newOmega)
}

// DampRelaxed records one controller relax of grid k's ω back toward 1.
func (o *Observer) DampRelaxed(k int, newOmega float64) {
	if o == nil {
		return
	}
	o.DampRelaxes.Inc(k)
	o.Omega.Set(k, int64(newOmega*1000))
	o.Trace.Record(EvDamp, k, newOmega)
}

// RolledBack records one rollback-last iterate discard (value is the
// residual measure that triggered it, for the timeline).
func (o *Observer) RolledBack(value float64) {
	if o == nil {
		return
	}
	o.Rollbacks.Inc()
	o.Trace.Record(EvRollback, -1, value)
}

// CycleDone records one completed V-cycle with the post-cycle relative
// residual (NaN when not computed).
func (o *Observer) CycleDone(relres float64) {
	if o == nil {
		return
	}
	o.CycleResiduals.Inc()
	o.Trace.Record(EvCycle, -1, relres)
}

// ResidualSample records a residual-norm observation on the timeline.
func (o *Observer) ResidualSample(grid int, relres float64) {
	if o == nil {
		return
	}
	o.CycleResiduals.Inc()
	o.Trace.Record(EvResidual, grid, relres)
}

// IterationDone records one Krylov iteration with its relative residual.
func (o *Observer) IterationDone(relres float64) {
	if o == nil {
		return
	}
	o.CycleResiduals.Inc()
	o.KrylovIterations.Inc()
	o.Trace.Record(EvIteration, -1, relres)
}

// KrylovSolved records one finished Krylov solve: kind is "pcg" or
// "fgmres", converged reports whether it reached tolerance.
func (o *Observer) KrylovSolved(kind string, converged bool) {
	if o == nil {
		return
	}
	switch kind {
	case "pcg":
		o.KrylovPCGSolves.Inc()
	case "fgmres":
		o.KrylovFGMRESolves.Inc()
	}
	if converged {
		o.KrylovConverged.Inc()
	}
}

// KrylovBreakdown records one Krylov breakdown (a non-positive or
// non-finite inner product: the operator or preconditioner is not SPD).
func (o *Observer) KrylovBreakdown() {
	if o == nil {
		return
	}
	o.KrylovBreakdowns.Inc()
}

// SetupDone records one completed AMG setup phase with its per-stage
// wall times (the amg.SetupStats breakdown; pass zero for stages that
// did not run). Nil-safe like every recording method.
func (o *Observer) SetupDone(total, strength, coarsen, interp, transpose, rap, factor, sparsify time.Duration) {
	if o == nil {
		return
	}
	o.SetupBuilds.Inc()
	o.SetupTotalNS.Add(int64(total))
	o.SetupStrengthNS.Add(int64(strength))
	o.SetupCoarsenNS.Add(int64(coarsen))
	o.SetupInterpNS.Add(int64(interp))
	o.SetupTransposeNS.Add(int64(transpose))
	o.SetupRAPNS.Add(int64(rap))
	o.SetupFactorNS.Add(int64(factor))
	o.SetupSparsifyNS.Add(int64(sparsify))
}

// Sparsified records the outcome of one setup's coarse-operator
// sparsification: levels that kept their sparsified operator, total
// nonzeros dropped, and levels the convergence guard reverted. Nil-safe.
func (o *Observer) Sparsified(levels, droppedNNZ, fallbacks int64) {
	if o == nil {
		return
	}
	o.SparsifyLevels.Add(levels)
	o.SparsifyDropped.Add(droppedNNZ)
	o.SparsifyFallbacks.Add(fallbacks)
}

// CorrectionPayload records the nonzero payload volume of one correction
// message for grid k arriving at the distmem owner. Nil-safe.
func (o *Observer) CorrectionPayload(k int, nnz int64) {
	if o == nil {
		return
	}
	o.SentNNZ.Add(k, nnz)
}

// TraceEvent records an arbitrary event on the timeline (no counter).
func (o *Observer) TraceEvent(kind EventKind, grid int, value float64) {
	if o == nil {
		return
	}
	o.Trace.Record(kind, grid, value)
}

// Merge folds another observer's snapshot into o: per-grid relaxation
// and correction counts are added index-aligned (extra grids in the
// snapshot are dropped), the staleness histogram is merged bucket-wise
// (ignored on bucket-layout mismatch), and the fault/recovery counters
// are added by name. The trace timeline and pool gauges are not merged
// (pool stats are process-global already). Use it to aggregate
// per-experiment observers into one exposition registry. Nil-safe.
func (o *Observer) Merge(s Snapshot) {
	if o == nil {
		return
	}
	for k, v := range s.Relaxations {
		o.Relaxations.Add(k, v)
	}
	for k, v := range s.Corrections {
		o.Corrections.Add(k, v)
	}
	o.Staleness.MergeSnapshot(s.Staleness)
	for name, v := range s.Faults {
		if c := o.faultCounter(name); c != nil {
			c.Add(v)
		}
	}
}

// faultCounter maps an exposition name to the matching counter field.
func (o *Observer) faultCounter(name string) *Counter {
	switch name {
	case "fault_drops_total":
		return o.Drops
	case "fault_duplicates_total":
		return o.Duplicates
	case "fault_crashes_total":
		return o.Crashes
	case "recovery_respawns_total":
		return o.Respawns
	case "recovery_watchdog_fires_total":
		return o.WatchdogFires
	case "recovery_divergence_resets_total":
		return o.DivergenceResets
	case "recovery_discarded_total":
		return o.Discarded
	case "recovery_retired_grids_total":
		return o.RetiredGrids
	case "stale_snapshot_drops_total":
		return o.StaleSnapshot
	}
	return nil
}

// ---- snapshots and exposition ----

// Snapshot is a point-in-time copy of an observer's solver signals.
type Snapshot struct {
	// Relaxations[k] / Corrections[k] are grid k's counts.
	Relaxations, Corrections []int64
	// Staleness is the correction-staleness histogram.
	Staleness HistSnapshot
	// Pool is the worker-pool state.
	Pool par.Stats
	// Faults are the unified fault/recovery counters, keyed as exposed
	// (fault_drops_total, recovery_respawns_total, ...).
	Faults map[string]int64
	// Events is the retained trace timeline (nil without tracing);
	// EventsDropped counts ring overwrites.
	Events        []Event
	EventsDropped uint64
}

// Snapshot copies the observer's current state. Safe to call while a
// solve is running (loosely consistent across instruments). Returns the
// zero Snapshot for a nil observer.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return Snapshot{
		Relaxations: o.Relaxations.Snapshot(nil),
		Corrections: o.Corrections.Snapshot(nil),
		Staleness:   o.Staleness.Snapshot(),
		Pool:        par.ReadStats(),
		Faults: map[string]int64{
			"fault_drops_total":                o.Drops.Load(),
			"fault_duplicates_total":           o.Duplicates.Load(),
			"fault_crashes_total":              o.Crashes.Load(),
			"recovery_respawns_total":          o.Respawns.Load(),
			"recovery_watchdog_fires_total":    o.WatchdogFires.Load(),
			"recovery_divergence_resets_total": o.DivergenceResets.Load(),
			"recovery_discarded_total":         o.Discarded.Load(),
			"recovery_retired_grids_total":     o.RetiredGrids.Load(),
			"stale_snapshot_drops_total":       o.StaleSnapshot.Load(),
		},
		Events:        o.Trace.Events(),
		EventsDropped: o.Trace.Dropped(),
	}
}

// WriteText writes the full registry in exposition format, followed by
// the trace timeline when tracing is enabled. Nil-safe.
func (o *Observer) WriteText(w io.Writer) error {
	if o == nil {
		return nil
	}
	if err := o.Registry.WriteText(w); err != nil {
		return err
	}
	return o.Trace.WriteText(w)
}
