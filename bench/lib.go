package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// The library workloads. Each times calls into exported functions of the
// layers and checks every answer with the oracle; none of them reads a
// relres or a converged flag the library reports.

// sample is one timed operation of a library workload.
type sample struct {
	wall   float64 // seconds
	setup  float64 // seconds of cold setup inside the operation (lib-setup-mix)
	iters  float64 // cycles or Krylov iterations
	relres float64 // recomputed by the oracle
}

// phases runs do n times. On a traced run the operations alternate between
// untraced and traced, so that both kinds see the same machine conditions and
// their difference is the cost of tracing. The count is fixed, whatever the
// machine's speed, so that the counts a run reports (iters) repeat exactly for
// a seed.
func (rc *runCtx) phases(n int, do func(i int, tr *tracer) sample) (plain, traced []sample, mark int) {
	mark = rc.tr.mark()
	for i := 0; i < n; i++ {
		// Collect the previous operation's garbage outside the timed
		// region, so that heap state (and with it peak memory) does not
		// depend on when the collector last happened to run.
		runtime.GC()
		if rc.tr != nil && i%2 == 1 {
			traced = append(traced, do(i, rc.tr))
		} else {
			plain = append(plain, do(i, nil))
		}
	}
	return plain, traced, mark
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// fillSolveMetrics derives the solve-side end-to-end metrics from samples. A
// library workload has one caller and no queue, so its request metrics only
// restate solve_s and solve_hi_s per second and in milliseconds.
func (rc *runCtx) fillSolveMetrics(o *outcome, ss []sample) {
	var its, rr []float64
	for _, s := range ss {
		its = append(its, s.iters)
		rr = append(rr, s.relres)
	}
	o.e2e["iters"] = mean(its)
	o.e2e["digits"] = digits(median(rr))
	rc.fillCallerMetrics(o, walls(ss))
}

// fillCallerMetrics fills the time metrics of a library workload from the
// wall times of what it counts as one request.
func (rc *runCtx) fillCallerMetrics(o *outcome, w []float64) {
	hi, p := hiPercentile(w)
	rc.notef("solve_hi_s is p%.0f of n=%d operations", 100*p, len(w))
	o.e2e["solve_s"] = median(w)
	o.e2e["solve_hi_s"] = hi
	o.e2e["req_per_s"] = 1 / median(w)
	o.e2e["req_p50_ms"] = 1e3 * median(w)
	o.e2e["req_p90_ms"] = 1e3 * hi
}

// traceMetrics fills the two metrics every traced workload reports: how much
// of the root spans their children explain, and what tracing cost.
func (rc *runCtx) traceMetrics(o *outcome, root string, mark int, plain, traced []float64) (self, dur map[string]float64) {
	self, dur, cov := rc.tr.selfTimes(mark, root)
	o.layer["bench.span_coverage"] = cov
	o.layer["bench.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	return self, dur
}

// ---- setup ----

// setupResult is one cold setup: matrix in hand to ready engine.
type setupResult struct {
	eng     *engine.Engine
	stats   *amg.SetupStats
	total   float64 // seconds, hierarchy build + engine construction
	newFrom float64 // seconds, engine.NewFromHierarchy alone
}

// coldSetupCSR builds the hierarchy and the engine for an assembled matrix.
// The garbage of whatever ran before is collected first, so that it neither
// counts towards this setup's peak memory nor is collected on its time.
func (rc *runCtx) coldSetupCSR(tr *tracer, a *sparse.CSR, opt amg.Options, smo smoother.Config) (setupResult, error) {
	runtime.GC()
	root := tr.begin("setup", 0, 0)
	defer root.end()
	sw := startWatch()
	sp := tr.begin("amg.build", root.id, root.req)
	h, st, err := amg.BuildWithStats(a, opt)
	sp.end()
	if err != nil {
		return setupResult{}, err
	}
	t1 := time.Now()
	sp = tr.begin("engine.new_from_hierarchy", root.id, root.req)
	eng, err := engine.NewFromHierarchy(h, smo)
	sp.end()
	if err != nil {
		return setupResult{}, err
	}
	return setupResult{eng: eng, stats: st, total: sw.seconds(), newFrom: time.Since(t1).Seconds()}, nil
}

// medianSetup runs n cold setups and returns the last one with the median
// total time.
func medianSetup(n int, do func() (setupResult, error)) (setupResult, float64, error) {
	var last setupResult
	var ts []float64
	for i := 0; i < n; i++ {
		r, err := do()
		if err != nil {
			return setupResult{}, 0, err
		}
		last = r
		ts = append(ts, r.total)
	}
	return last, median(ts), nil
}

func wjacobi(omega float64) smoother.Config {
	return smoother.Config{Kind: smoother.WJacobi, Omega: omega, Blocks: 1}
}

func hierMB(eng *engine.Engine) float64 { return float64(eng.HierarchyBytes()) / 1e6 }

// ---- solves ----

// steppedSolve cycles method m from x = 0 until the relative residual is at
// most tau, stepping engine.Cycle itself (what engine.Solve does, plus the
// stop test), and returns the iterate, the cycles run and the wall time.
func (rc *runCtx) steppedSolve(tr *tracer, eng *engine.Engine, m engine.Method, b []float64, tau float64) ([]float64, int, float64) {
	root := tr.begin("solve", 0, 0)
	sw := startWatch()
	n := len(b)
	x, r := make([]float64, n), make([]float64, n)
	w := eng.AcquireWorkspace()
	nb := vec.Norm2(b)
	it := 0
	for it < capCycles {
		sp := tr.begin("engine.cycle", root.id, root.req)
		eng.Cycle(m, x, b, w)
		sp.end()
		sp = tr.begin("op.residual_norm", root.id, root.req)
		eng.Ops[0].Residual(r, b, x)
		rel := vec.Norm2(r) / nb
		sp.end()
		it++
		if !(rel > tau) || math.IsInf(rel, 0) {
			break
		}
	}
	eng.ReleaseWorkspace(w)
	wall := sw.seconds()
	root.end()
	return x, it, wall
}

// timedPrecond and timedOp wrap what a Krylov solve is handed, so the traced
// run can split an iteration into preconditioner, operator and the rest.
type timedPrecond struct {
	inner krylov.Preconditioner
	tr    *tracer
	par   openSpan
}

func (p *timedPrecond) Precondition(z, r []float64) {
	sp := p.tr.begin("krylov.precond", p.par.id, p.par.req)
	p.inner.Precondition(z, r)
	sp.end()
}

type timedOp struct {
	op.Operator
	tr  *tracer
	par openSpan
}

func (a *timedOp) Apply(y, x []float64) {
	sp := a.tr.begin("krylov.op_apply", a.par.id, a.par.req)
	a.Operator.Apply(y, x)
	sp.end()
}

// pcgSolve runs PCG preconditioned by one cycle of m to tol and returns the
// iterate, the iterations and the wall time.
func (rc *runCtx) pcgSolve(tr *tracer, eng *engine.Engine, m engine.Method, b []float64, tol float64) ([]float64, int, float64, error) {
	root := tr.begin("solve", 0, 0)
	defer root.end()
	sw := startWatch()
	p := krylov.NewMGPreconditioner(eng, m)
	defer p.Release()
	opt := krylov.DefaultOptions()
	opt.Tol, opt.MaxIter, opt.M = tol, capKrylov, p
	a := eng.Ops[0]
	if tr != nil {
		sp := tr.begin("krylov.pcg", root.id, root.req)
		defer sp.end()
		opt.M = &timedPrecond{inner: p, tr: tr, par: sp}
		a = &timedOp{Operator: a, tr: tr, par: sp}
	}
	res, err := krylov.PCG(a, b, opt)
	return res.X, res.Iterations, sw.seconds(), err
}

// checkSolve applies the failure rule of a to-tolerance solve: it fails if it
// hit the cap or its recomputed residual misses tau.
func checkSolve(o *outcome, what string, iters, cap int, relres, tau float64) {
	o.attempted++
	if iters >= cap || !(relres <= tau) {
		o.fail("%s: %d iterations, recomputed relres %.3e, want <= %.0e", what, iters, relres, tau)
	}
}

// ---- lib-sync-csr ----

func runLibSyncCSR(rc *runCtx) (*outcome, error) {
	par.SetWorkers(1)
	o := newOutcome()
	gen := generator{rc.seed}
	sp := rc.tr.begin("grid.build", 0, 0)
	a := grid.Laplacian27pt(rc.sz.syncN)
	sp.end()
	aop := op.FromCSR(a)
	set, setupS, err := medianSetup(rc.sz.syncSetups, func() (setupResult, error) {
		return rc.coldSetupCSR(rc.tr, a, amg.DefaultOptions(), wjacobi(0.9))
	})
	if err != nil {
		return nil, err
	}
	plain, traced, mark := rc.phases(rc.count(rc.sz.syncSolves), func(i int, tr *tracer) sample {
		b := gen.rhs(a.Rows, "rhs", i)
		x, it, wall := rc.steppedSolve(tr, set.eng, engine.Mult, b, tauCycle)
		rel := trueRelRes(aop, b, x)
		checkSolve(o, "lib-sync-csr solve", it, capCycles, rel, tauCycle)
		return sample{wall: wall, iters: float64(it), relres: rel}
	})
	o.e2e["setup_s"] = setupS
	o.e2e["hier_mb"] = hierMB(set.eng)
	rc.fillSolveMetrics(o, plain)
	if traced != nil {
		self, dur := rc.traceMetrics(o, "solve", mark, walls(plain), walls(traced))
		o.layer["engine.cycle_share"] = self["engine.cycle"] / dur["solve"]
		probeEngine(rc, set.eng, o.layer)
		if err := probeKernels(rc, o.layer); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ---- lib-setup-mix ----

// mixMatrix is one of the three matrices of lib-setup-mix.
type mixMatrix struct {
	tag   string
	a     *sparse.CSR
	opt   amg.Options
	smo   smoother.Config
	build float64 // seconds to generate or assemble it
}

// buildMixMatrices generates the structured matrix and assembles the two FEM
// ones, with the paper's per-family options (unknown approach for the
// 3-dof elasticity system, ω = 0.5 on the FEM families).
func buildMixMatrices(rc *runCtx) ([]mixMatrix, error) {
	timed := func(name string, f func() (*sparse.CSR, error)) (*sparse.CSR, float64, error) {
		sp := rc.tr.begin(name, 0, 0)
		defer sp.end()
		t0 := time.Now()
		a, err := f()
		return a, time.Since(t0).Seconds(), err
	}
	var out []mixMatrix
	a, t, _ := timed("grid.build", func() (*sparse.CSR, error) { return grid.Laplacian7pt(rc.sz.mix7ptN), nil })
	out = append(out, mixMatrix{tag: "7pt", a: a, opt: amg.DefaultOptions(), smo: wjacobi(0.9), build: t})
	a, t, err := timed("fem.assemble", func() (*sparse.CSR, error) {
		p, err := fem.AssembleLaplace(fem.BallMesh(rc.sz.mixLapN))
		if err != nil {
			return nil, err
		}
		return p.A, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, mixMatrix{tag: "femlap", a: a, opt: amg.DefaultOptions(), smo: wjacobi(0.5), build: t})
	a, t, err = timed("fem.assemble", func() (*sparse.CSR, error) {
		p, err := fem.AssembleElasticity(fem.BeamMesh(rc.sz.mixElasN), fem.DefaultBeamMaterials())
		if err != nil {
			return nil, err
		}
		return p.A, nil
	})
	if err != nil {
		return nil, err
	}
	eopt := amg.DefaultOptions()
	eopt.NumFunctions = 3
	out = append(out, mixMatrix{tag: "elas", a: a, opt: eopt, smo: wjacobi(0.5), build: t})
	return out, nil
}

// runLibSetupMix measures repetitions of: cold setup of each of the three
// matrices, then one PCG(Multadd) solve on each to prove the hierarchy works.
// A repetition is the unit of every metric (setup_s and solve_s are sums over
// the three matrices, medians over repetitions).
func runLibSetupMix(rc *runCtx) (*outcome, error) {
	par.SetWorkers(0)
	o := newOutcome()
	gen := generator{rc.seed}
	mats, err := buildMixMatrices(rc)
	if err != nil {
		return nil, err
	}
	var reps [][]setupResult // every repetition's three setups, in order
	var runErr error
	plain, traced, mark := rc.phases(rc.count(rc.sz.mixReps), func(i int, tr *tracer) sample {
		root := tr.begin("rep", 0, 0)
		defer root.end()
		var s sample
		var sets []setupResult
		var relres []float64
		for _, m := range mats {
			sp := tr.begin("rep.setup", root.id, root.req)
			set, err := rc.coldSetupCSR(nil, m.a, m.opt, m.smo)
			sp.end()
			if err != nil {
				runErr = err
				return s
			}
			sets = append(sets, set)
			s.setup += set.total
			b := gen.rhs(m.a.Rows, "rhs-"+m.tag, i)
			sp = tr.begin("rep.solve", root.id, root.req)
			x, it, wall, err := rc.pcgSolve(nil, set.eng, engine.Multadd, b, tauSetup)
			sp.end()
			o.attempted++
			rel := trueRelRes(op.FromCSR(m.a), b, x)
			if err != nil || it >= capKrylov || !(rel <= tauSetup) {
				o.fail("lib-setup-mix %s: err=%v, %d iterations, recomputed relres %.3e", m.tag, err, it, rel)
			}
			relres = append(relres, rel)
			s.wall += wall
			s.iters += float64(it)
		}
		reps = append(reps, sets)
		s.relres = median(relres)
		return s
	})
	if runErr != nil {
		return nil, runErr
	}
	rc.fillSolveMetrics(o, plain)
	// A request here is a whole repetition: three setups and three solves.
	whole := func(ss []sample) (setups, all []float64) {
		for _, s := range ss {
			setups = append(setups, s.setup)
			all = append(all, s.setup+s.wall)
		}
		return setups, all
	}
	setups, all := whole(plain)
	o.e2e["setup_s"] = median(setups)
	hi, _ := hiPercentile(all)
	o.e2e["req_per_s"] = 1 / median(all)
	o.e2e["req_p50_ms"] = 1e3 * median(all)
	o.e2e["req_p90_ms"] = 1e3 * hi
	hb := 0.0
	for _, set := range reps[len(reps)-1] {
		hb += hierMB(set.eng)
	}
	o.e2e["hier_mb"] = hb
	if traced != nil {
		_, allTraced := whole(traced)
		rc.traceMetrics(o, "rep", mark, all, allTraced)
		if err := setupLayerMetrics(rc, o, mats, reps); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setupLayerMetrics fills the per-matrix AMG metrics from the stage times the
// setup itself reports (amg.SetupStats; medians over the repetitions), and measures the one-worker
// twin for the parallel speed-up.
func setupLayerMetrics(rc *runCtx, o *outcome, mats []mixMatrix, reps [][]setupResult) error {
	stages := []struct {
		name string
		pick func(st *amg.SetupStats) time.Duration
	}{
		{"strength", func(st *amg.SetupStats) time.Duration { return st.Strength }},
		{"coarsen", func(st *amg.SetupStats) time.Duration { return st.Coarsen }},
		{"interp", func(st *amg.SetupStats) time.Duration { return st.Interp }},
		{"transpose", func(st *amg.SetupStats) time.Duration { return st.Transpose }},
		{"rap", func(st *amg.SetupStats) time.Duration { return st.RAP }},
		{"factor", func(st *amg.SetupStats) time.Duration { return st.Factor }},
	}
	for j, m := range mats {
		tag := m.tag
		// over is the median over the repetitions of a time of matrix j.
		over := func(pick func(s setupResult) float64) float64 {
			var ts []float64
			for _, sets := range reps {
				ts = append(ts, pick(sets[j]))
			}
			return median(ts)
		}
		for _, stage := range stages {
			o.layer["amg."+stage.name+"_s."+tag] = over(func(s setupResult) float64 { return stage.pick(s.stats).Seconds() })
		}
		o.layer["engine.new_from_hierarchy_s."+tag] = over(func(s setupResult) float64 { return s.newFrom })
		// Within one setup the stages must add up to the total it reports.
		last := reps[len(reps)-1][j]
		st := last.stats
		sum := st.Strength + st.Coarsen + st.Interp + st.Transpose + st.RAP + st.Factor + st.Sparsify
		o.layer["amg.stage_sum_over_total."+tag] = sum.Seconds() / st.Total.Seconds()
		o.layer["amg.levels."+tag] = float64(st.Levels)
		o.layer["amg.operator_complexity."+tag] = last.eng.H.OperatorComplexity()
		par.SetWorkers(1)
		sp := rc.tr.begin("amg.build.serial", 0, 0)
		t0 := time.Now()
		_, _, err := amg.BuildWithStats(m.a, m.opt)
		serial := time.Since(t0).Seconds()
		sp.end()
		par.SetWorkers(0)
		if err != nil {
			return err
		}
		o.layer["amg.setup_par_speedup."+tag] = serial / over(func(s setupResult) float64 { return s.stats.Total.Seconds() })
		if tag == "7pt" {
			o.layer["grid.build_s."+tag] = m.build
		} else {
			o.layer["fem.assemble_s."+tag] = m.build
		}
	}
	return nil
}

// ---- lib-async ----

// runLibAsync measures the paper's headline path: asynchronous Multadd with
// local residuals and atomic writes, one thread per grid, each grid doing
// t_max corrections, where t_max is what synchronous Multadd needs to reach
// 1e-6 on this setup. Every third solve is followed by its Sync:true twin.
func runLibAsync(rc *runCtx) (*outcome, error) {
	par.SetWorkers(0)
	o := newOutcome()
	gen := generator{rc.seed}
	a := grid.Laplacian7pt(rc.sz.asyncN)
	aop := op.FromCSR(a)
	set, setupS, err := medianSetup(rc.sz.setups, func() (setupResult, error) {
		return rc.coldSetupCSR(rc.tr, a, amg.DefaultOptions(), wjacobi(0.9))
	})
	if err != nil {
		return nil, err
	}
	eng := set.eng
	// t_max is a property of the setup, not of the seed: it is measured on
	// one fixed right-hand side, so that every seed solves the same problem
	// size for the same number of corrections.
	_, tmax, _ := rc.steppedSolve(nil, eng, engine.Multadd, generator{0}.rhs(a.Rows, "tmax", 0), tauSetup)
	if tmax >= capCycles {
		return nil, fmt.Errorf("lib-async: sync Multadd did not reach %.0e in %d cycles", tauSetup, capCycles)
	}
	grids := eng.NumLevels()
	rc.notef("lib-async: %d grids, %d threads, t_max=%d", grids, grids, tmax)
	observer := obs.New(grids)
	var syncWalls, serialWalls, corrections []float64
	diverged := 0
	plain, traced, mark := rc.phases(rc.count(rc.sz.asyncSolves), func(i int, tr *tracer) sample {
		b := gen.rhs(a.Rows, "rhs", i)
		cfg := async.Config{Method: engine.Multadd, Write: async.AtomicWrite, Res: async.LocalRes,
			Threads: grids, MaxCycles: tmax, Observer: observer}
		root := tr.begin("solve", 0, 0)
		sp := tr.begin("async.solve", root.id, root.req)
		sw := startWatch()
		res, err := async.Solve(context.Background(), eng, b, cfg)
		wall := sw.seconds()
		sp.end()
		root.end()
		o.attempted++
		if err != nil {
			o.fail("lib-async solve: %v", err)
			return sample{wall: wall, relres: 1}
		}
		rel := trueRelRes(aop, b, res.X)
		// A fixed-t_max asynchronous solve has no tolerance to reach; it
		// fails if it diverged or if the residual it reports is not the
		// residual of the iterate it returned.
		if res.Diverged || !(rel < 1) || math.Abs(res.RelRes-rel) > 0.01*rel {
			diverged++
			o.fail("lib-async solve: diverged=%v, reported relres %.3e, recomputed %.3e", res.Diverged, res.RelRes, rel)
		}
		corrections = append(corrections, res.AvgCorrects*float64(grids))
		if i%3 == 0 {
			// The synchronous twin (global barrier per cycle) and the
			// single-goroutine engine solve of the same cycles, on the same
			// right-hand side.
			cfg.Sync, cfg.Observer = true, nil
			sw = startWatch()
			twin, err := async.Solve(context.Background(), eng, b, cfg)
			syncWalls = append(syncWalls, sw.seconds())
			o.attempted++
			if err != nil || twin.Diverged || !(trueRelRes(aop, b, twin.X) <= 10*tauSetup) {
				o.fail("lib-async sync twin: err=%v", err)
			}
			if rc.tr != nil {
				sw = startWatch()
				eng.Solve(engine.Multadd, b, tmax)
				serialWalls = append(serialWalls, sw.seconds())
			}
		}
		return sample{wall: wall, iters: res.AvgCorrects, relres: rel}
	})
	o.e2e["setup_s"] = setupS
	o.e2e["hier_mb"] = hierMB(eng)
	rc.fillSolveMetrics(o, plain)
	if traced != nil {
		rc.traceMetrics(o, "solve", mark, walls(plain), walls(traced))
		all := append(append([]sample(nil), plain...), traced...)
		w := walls(all)
		var rr []float64
		for _, s := range all {
			rr = append(rr, s.relres)
		}
		o.layer["async.solve_over_sync"] = median(w) / median(syncWalls)
		o.layer["async.solve_over_serial"] = median(w) / median(serialWalls)
		o.layer["async.corrections_per_s"] = mean(corrections) / mean(w)
		o.layer["async.staleness_mean"] = observer.Staleness.Mean()
		o.layer["async.relres_spread"] = percentile(rr, 0.9) / percentile(rr, 0.1)
		o.layer["async.diverged"] = float64(diverged)
	}
	return o, nil
}

// ---- lib-pcg-mf ----

func (rc *runCtx) coldSetupMF(tr *tracer, a op.Operator) (setupResult, error) {
	runtime.GC()
	root := tr.begin("setup", 0, 0)
	defer root.end()
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	sw := startWatch()
	sp := tr.begin("engine.new_operator", root.id, root.req)
	eng, err := engine.NewOperator(a, opt, wjacobi(0.9))
	sp.end()
	if err != nil {
		return setupResult{}, err
	}
	return setupResult{eng: eng, stats: eng.Setup, total: sw.seconds()}, nil
}

func runLibPCGMF(rc *runCtx) (*outcome, error) {
	par.SetWorkers(0)
	o := newOutcome()
	gen := generator{rc.seed}
	a := op.NewStencil7(rc.sz.pcgN)
	set, setupS, err := medianSetup(rc.sz.setups, func() (setupResult, error) { return rc.coldSetupMF(rc.tr, a) })
	if err != nil {
		return nil, err
	}
	plain, traced, mark := rc.phases(rc.count(rc.sz.pcgSolves), func(i int, tr *tracer) sample {
		b := gen.rhs(a.Rows(), "rhs", i)
		x, it, wall, err := rc.pcgSolve(tr, set.eng, engine.Multadd, b, tauCycle)
		rel := trueRelRes(a, b, x)
		if err != nil {
			it = capKrylov
		}
		checkSolve(o, "lib-pcg-mf solve", it, capKrylov, rel, tauCycle)
		return sample{wall: wall, iters: float64(it), relres: rel}
	})
	o.e2e["setup_s"] = setupS
	o.e2e["hier_mb"] = hierMB(set.eng)
	rc.fillSolveMetrics(o, plain)
	if traced != nil {
		self, dur := rc.traceMetrics(o, "solve", mark, walls(plain), walls(traced))
		o.layer["krylov.precond_share"] = self["krylov.precond"] / dur["solve"]
		o.layer["krylov.op_apply_share"] = self["krylov.op_apply"] / dur["solve"]
		// Per-iteration cost and allocations come from the unwrapped solves.
		solve, its := 0.0, 0.0
		for _, s := range plain {
			solve += s.wall
			its += s.iters
		}
		o.layer["krylov.iter_ms"] = 1e3 * solve / its
		b := gen.rhs(a.Rows(), "allocs", 0)
		o.layer["krylov.allocs_per_solve"] = mallocs(2, func() { rc.pcgSolve(nil, set.eng, engine.Multadd, b, tauCycle) })
		probeOps(rc, o.layer)
	}
	return o, nil
}
