package obs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"time"

	"asyncmg/internal/par"
)

// Observer is the per-solve metrics sink the solvers report into. Every
// recording method is safe on a nil receiver, so the engine, the async
// teams, the distmem owner/workers, the §III models and the Krylov loop
// thread one *Observer unconditionally; a nil observer costs one branch
// per event.
//
// The instruments are exported fields for allocation-free hot path
// access. Each field's `obs` tag is its exposition name, the one place
// the name is written; New builds the observer's table from the tags,
// together with the par worker-pool readings.
type Observer struct {
	// Trace is the optional bounded event timeline (nil unless the
	// observer was built WithTrace). It is the first field so that no
	// instrument sits at offset 0: the solvers inline the recording
	// methods, and a zero offset encodes shorter, which would move the
	// solver code linked after obs to a new alignment (EXPERIMENTS.md,
	// "Code alignment").
	Trace *Tracer

	// Relaxations counts smoothing sweeps per grid (level): the x-axis
	// quantity of the paper's Figures 4-6 ("relative residual vs
	// relaxations"). One coarse exact solve counts as one relaxation on
	// the coarsest grid.
	Relaxations *GridCounters `obs:"grid_relaxations_total"`
	// Corrections counts applied corrections per grid (the paper's
	// "Corrects" column).
	Corrections *GridCounters `obs:"grid_corrections_total"`
	// Staleness is the age, in globally applied corrections (sweeps), of
	// the residual information each applied correction was computed from —
	// the empirical read delay δ of the §III models.
	Staleness *Histogram `obs:"staleness_sweeps"`
	// CycleResiduals is the count of residual-norm samples recorded on
	// the trace (synchronous cycles, CG iterations, distmem applies).
	CycleResiduals *Counter `obs:"residual_samples_total"`

	// Omega is each grid's current damping factor ω_k in milli-units
	// (1000 = undamped), set by the async adaptive-damping controller.
	// It is a gauge: Merge leaves it alone.
	Omega *GridCounters `obs:"damping_omega_milli" gauge:"true"`
	// DampTightens / DampRelaxes count controller events per grid: a
	// tighten lowers ω_k (stale reads or degrading residual history), a
	// relax raises it back toward 1 as reads freshen.
	DampTightens *GridCounters `obs:"damping_tightens_total"`
	DampRelaxes  *GridCounters `obs:"damping_relaxes_total"`
	// Rollbacks counts asynchronous solves whose iterate was discarded
	// by the rollback-last divergence defense.
	Rollbacks *Counter `obs:"async_rollbacks_total"`

	// The fault/recovery counters of the distmem solver (mirrors of
	// distmem.Result's counters), which Snapshot.Faults reports.
	Drops            *Counter `obs:"fault_drops_total" fault:"true"`
	Duplicates       *Counter `obs:"fault_duplicates_total" fault:"true"`
	Crashes          *Counter `obs:"fault_crashes_total" fault:"true"`
	Respawns         *Counter `obs:"recovery_respawns_total" fault:"true"`
	WatchdogFires    *Counter `obs:"recovery_watchdog_fires_total" fault:"true"`
	DivergenceResets *Counter `obs:"recovery_divergence_resets_total" fault:"true"`
	Discarded        *Counter `obs:"recovery_discarded_total" fault:"true"`
	RetiredGrids     *Counter `obs:"recovery_retired_grids_total" fault:"true"`
	StaleSnapshot    *Counter `obs:"stale_snapshot_drops_total" fault:"true"`

	// SetupBuilds counts AMG setup phases recorded through SetupDone; the
	// *NS counters accumulate the per-stage wall time (nanoseconds) of
	// those setups, matching amg.SetupStats stage for stage (the cached
	// Pᵀ build and the Galerkin triple product are separate stages).
	SetupBuilds      *Counter `obs:"setup_builds_total"`
	SetupTotalNS     *Counter `obs:"setup_total_ns_total"`
	SetupStrengthNS  *Counter `obs:"setup_strength_ns_total"`
	SetupCoarsenNS   *Counter `obs:"setup_coarsen_ns_total"`
	SetupInterpNS    *Counter `obs:"setup_interp_ns_total"`
	SetupTransposeNS *Counter `obs:"setup_transpose_ns_total"`
	SetupRAPNS       *Counter `obs:"setup_rap_ns_total"`
	SetupFactorNS    *Counter `obs:"setup_factor_ns_total"`
	SetupSparsifyNS  *Counter `obs:"setup_sparsify_ns_total"`
	// Sparsification-guard outcomes recorded through Sparsified: levels
	// that kept a sparsified operator, total nonzeros dropped from coarse
	// operators, and levels the convergence guard reverted.
	SparsifyLevels    *Counter `obs:"sparsify_levels_total"`
	SparsifyDropped   *Counter `obs:"sparsify_dropped_nnz_total"`
	SparsifyFallbacks *Counter `obs:"sparsify_fallbacks_total"`

	// SentNNZ accumulates, per grid, the nonzero payload volume of
	// correction messages the distmem workers sent to the owner — the
	// message-volume signal coarse-operator sparsification shrinks.
	SentNNZ *GridCounters `obs:"distmem_sent_nnz_total"`

	// Krylov-subsystem counters (package krylov): iterations across all
	// solver kinds, completed PCG and FGMRES solves, solves that reached
	// tolerance, and breakdowns (non-SPD operator or preconditioner
	// detected mid-solve). Zero-valued for pure cycling workloads.
	KrylovIterations  *Counter `obs:"krylov_iterations_total"`
	KrylovPCGSolves   *Counter `obs:"krylov_pcg_solves_total"`
	KrylovFGMRESolves *Counter `obs:"krylov_fgmres_solves_total"`
	KrylovConverged   *Counter `obs:"krylov_converged_total"`
	KrylovBreakdowns  *Counter `obs:"krylov_breakdowns_total"`

	// Serving counters of the solver service (package serve): hierarchy
	// setup-cache traffic, admission-queue depth, and requests rejected by
	// admission control (backpressure or drain). Zero-valued and harmless
	// for non-serving solves.
	CacheHits      *Counter `obs:"serve_cache_hits_total"`
	CacheMisses    *Counter `obs:"serve_cache_misses_total"`
	CacheEvictions *Counter `obs:"serve_cache_evictions_total"`
	QueueDepth     *Gauge   `obs:"serve_queue_depth"`
	Rejected       *Counter `obs:"serve_rejected_total"`
	Requests       *Counter `obs:"serve_requests_total"`
	// Warms counts replication warm requests a node served (package
	// serve's /internal/warm, where the cluster router pushes a replay
	// of a routed request).
	Warms *Counter `obs:"serve_warms_total"`

	// Cluster routing counters (package cluster): solves forwarded to
	// nodes, 429 retries honoring Retry-After, hedged requests launched
	// against a replica (and the hedges that won), failovers to the next
	// owner after a node failure, full-partition fallbacks to the local
	// engine, per-node circuit-breaker transitions, ring rebuilds driven
	// by membership changes, replica warm pushes, and failed health
	// probes. Zero-valued and harmless outside a cluster router.
	RouteForwards       *Counter `obs:"cluster_forwards_total"`
	RouteRetries        *Counter `obs:"cluster_retries_total"`
	RouteHedges         *Counter `obs:"cluster_hedges_total"`
	RouteHedgeWins      *Counter `obs:"cluster_hedge_wins_total"`
	RouteFailovers      *Counter `obs:"cluster_failovers_total"`
	RouteLocalFallbacks *Counter `obs:"cluster_local_fallbacks_total"`
	BreakerOpens        *Counter `obs:"cluster_breaker_opens_total"`
	BreakerRejects      *Counter `obs:"cluster_breaker_rejects_total"`
	RingRebuilds        *Counter `obs:"cluster_ring_rebuilds_total"`
	ReplicaWarms        *Counter `obs:"cluster_replica_warms_total"`
	ProbeFailures       *Counter `obs:"cluster_probe_failures_total"`

	// metrics is the exposition table, sorted by name.
	metrics []metric
}

// metric is one row of an observer's table: an exposition name and its
// instrument, a *Counter, *Gauge, *GridCounters, *Histogram or a reading
// of the par worker pool's stats.
type metric struct {
	name string
	v    any
	// fault marks a counter that Snapshot.Faults reports; gauge marks a
	// per-grid vector of set values, which Merge does not add.
	fault, gauge bool
}

// New builds an observer for a solve over `grids` grids (hierarchy
// levels): one instrument per tagged field, each a row of its table.
// Pass the hierarchy depth; out-of-range grid indices are dropped, so an
// over-estimate is safe.
func New(grids int) *Observer {
	o := &Observer{}
	v := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name := f.Tag.Get("obs")
		if name == "" {
			continue
		}
		var inst any
		switch v.Field(i).Interface().(type) {
		case *GridCounters:
			inst = NewGridCounters(grids)
		case *Histogram:
			inst = NewHistogram(DefaultStalenessBounds())
		default: // *Counter or *Gauge, whose zero value is ready
			inst = reflect.New(f.Type.Elem()).Interface()
		}
		v.Field(i).Set(reflect.ValueOf(inst))
		m := metric{name: name, v: inst}
		_, m.fault = f.Tag.Lookup("fault")
		_, m.gauge = f.Tag.Lookup("gauge")
		o.metrics = append(o.metrics, m)
	}
	// The par worker pool's process-wide stats, read at exposition time;
	// Merge and Snapshot leave them alone. (A package-level table of these
	// rows would move the data linked after obs to new cache-line offsets.)
	o.metrics = append(o.metrics,
		metric{name: "pool_dispatches_total", v: func(s par.Stats) int64 { return s.Dispatches }},
		metric{name: "pool_serial_kernels_total", v: func(s par.Stats) int64 { return s.Serial }},
		metric{name: "pool_contended_total", v: func(s par.Stats) int64 { return s.Contended }},
		metric{name: "pool_busy_ns_total", v: func(s par.Stats) int64 { return s.BusyNS }})
	sort.Slice(o.metrics, func(i, j int) bool { return o.metrics[i].name < o.metrics[j].name })
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

// Merge adds other's counts into o: every counter, every per-grid
// counter (index-aligned; grids o does not have are dropped) and the
// staleness histogram. Gauges (the queue depth, the ω vector), the pool
// readings (process-wide already) and the trace timeline are not merged.
// Use it to aggregate per-run observers into one exposition. Nil-safe.
func (o *Observer) Merge(other *Observer) {
	if o == nil || other == nil {
		return
	}
	// Both tables come from New, so their rows line up.
	for i, m := range o.metrics[:min(len(o.metrics), len(other.metrics))] {
		switch v := m.v.(type) {
		case *Counter:
			v.Add(other.metrics[i].v.(*Counter).Load())
		case *GridCounters:
			if !m.gauge {
				src := other.metrics[i].v.(*GridCounters)
				for k := range src.Len() {
					v.Add(k, src.Load(k))
				}
			}
		case *Histogram:
			v.merge(other.metrics[i].v.(*Histogram))
		}
	}
}

// ---- snapshots and exposition ----

// Snapshot is a point-in-time copy of an observer's solver signals.
type Snapshot struct {
	// Relaxations[k] / Corrections[k] are grid k's counts.
	Relaxations, Corrections []int64
	// Staleness is the correction-staleness histogram.
	Staleness HistSnapshot
	// Faults are the fault/recovery counters, keyed as exposed
	// (fault_drops_total, recovery_respawns_total, ...).
	Faults map[string]int64
	// Events is the retained trace timeline (nil without tracing).
	Events []Event
}

// Snapshot copies the observer's current state. Safe to call while a
// solve is running (loosely consistent across instruments). Returns the
// zero Snapshot for a nil observer.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	faults := make(map[string]int64)
	for _, m := range o.metrics {
		if m.fault {
			faults[m.name] = m.v.(*Counter).Load()
		}
	}
	return Snapshot{
		Relaxations: o.Relaxations.Snapshot(nil),
		Corrections: o.Corrections.Snapshot(nil),
		Staleness:   o.Staleness.Snapshot(),
		Faults:      faults,
		Events:      o.Trace.Events(),
	}
}

// WriteText writes every metric in a stable, sorted, Prometheus-style
// plain-text format, followed by the trace timeline when tracing is
// enabled:
//
//	name 42
//	name{grid="0"} 7
//	name_bucket{le="4"} 3
//	name_bucket{le="+Inf"} 5
//	name_sum 12
//	name_count 5
//
// A gauge adds a name_max line, its high-water mark. Nil-safe.
func (o *Observer) WriteText(w io.Writer) error {
	if o == nil {
		return nil
	}
	var b bytes.Buffer
	writeMetrics(&b, o.metrics)
	o.Trace.writeText(&b)
	_, err := b.WriteTo(w)
	return err
}

// writeMetrics writes one line per counter, gauge reading, grid or
// bucket of the table ms, in its order.
func writeMetrics(b *bytes.Buffer, ms []metric) {
	ps := par.ReadStats()
	for _, m := range ms {
		switch v := m.v.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s %d\n", m.name, v.Load())
		case *Gauge:
			fmt.Fprintf(b, "%s %d\n%s_max %d\n", m.name, v.Load(), m.name, v.Max())
		case *GridCounters:
			for k := range v.Len() {
				fmt.Fprintf(b, "%s{grid=\"%d\"} %d\n", m.name, k, v.Load(k))
			}
		case *Histogram:
			s := v.Snapshot()
			var cum int64
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = strconv.FormatInt(s.Bounds[i], 10)
				}
				fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", m.name, le, cum)
			}
			fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", m.name, s.Sum, m.name, s.Count)
		case func(par.Stats) int64:
			fmt.Fprintf(b, "%s %d\n", m.name, v(ps))
		}
	}
}
