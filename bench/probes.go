package main

import (
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// Layer probes of the traced run: single layers timed from outside through
// their exported functions. GB/s figures divide computed bytes (what the
// kernel must move once, from the array sizes) by the measured time; they are
// not hardware counters.

func gbps(bytes int, seconds float64) float64 { return float64(bytes) / seconds / 1e9 }

// probeKernels times the assembled-CSR kernels under the synchronous cycle on
// the 27pt operator (no AMG setup), single-threaded, against a triad measured
// in the same run. These should move solve_s on lib-sync-csr and leave
// lib-pcg-mf alone.
func probeKernels(rc *runCtx, layer metrics) error {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	n := rc.sz.kernelN
	a := grid.Laplacian27pt(n)
	rows, nnz := a.Rows, a.NNZ()
	gen := generator{rc.seed}
	x, b := gen.rhs(rows, "probe-x", 0), gen.rhs(rows, "probe-b", 0)
	y, e, tmp := make([]float64, rows), make([]float64, rows), make([]float64, rows)

	// y = A x reads values, column indices, row pointers and x, writes y.
	spmvBytes := nnz*12 + rows*(4+8+8)
	spmv := timeIt(rc.sz.probeBudget, func() { a.MatVec(y, x) })
	layer["sparse.spmv_gbps"] = gbps(spmvBytes, spmv)
	res := timeIt(rc.sz.probeBudget, func() { a.Residual(y, b, x) })
	layer["sparse.residual_gbps"] = gbps(spmvBytes+rows*8, res)

	// The fused down-leg step against its three-step twin, on the geometric
	// interpolant.
	p := op.GeomInterpCSR(n)
	pt := p.Transpose()
	coarse := make([]float64, p.Cols)
	sm, err := smoother.New(a, wjacobi(0.9))
	if err != nil {
		return err
	}
	inv := sm.InvDiag()
	aop, itp := op.FromCSR(a), op.InterpFromCSR(p, pt)
	fused, unfused := timePair(rc.sz.probeBudget,
		func() { op.FusedJacobiResidualRestrict(aop, itp, e, coarse, inv, b, tmp) },
		func() {
			sm.Apply(e, b)
			a.Residual(tmp, b, e)
			pt.MatVec(coarse, tmp)
		})
	layer["sparse.fused_jrr_over_unfused"] = fused / unfused
	layer["smoother.jacobi_sweep_ms"] = 1e3 * timeIt(rc.sz.probeBudget, func() { sm.Sweep(e, b, tmp) })

	par.SetWorkers(0)
	serial, sharded := timePair(rc.sz.probeBudget, func() { a.MatVec(y, x) }, func() { a.MatVecPar(y, x) })
	layer["sparse.spmv_par_speedup"] = serial / sharded

	// Triad a = b + s·c, single-threaded: the bandwidth ceiling. A share of
	// it is only stated when each array is at least four times the last-level
	// cache; otherwise both sizes are printed and the share is left out.
	par.SetWorkers(1)
	llc := llcBytes()
	elems := int(min(max(4*llc, 32<<20), int64(rc.sz.triadBytes))) / 8
	ta, tb, tc := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range tb {
		tb[i], tc[i] = 1, 2
	}
	triad := gbps(24*elems, timeIt(rc.sz.probeBudget, func() {
		for i := range ta {
			ta[i] = tb[i] + 0.5*tc[i]
		}
	}))
	layer["bench.triad_gbps"] = triad
	if int64(8*elems) >= 4*llc && llc > 0 {
		rc.notef("sparse.spmv_pct_triad = %.1f %% (triad arrays %d MiB each, LLC %d MiB)", 100*layer["sparse.spmv_gbps"]/triad, 8*elems>>20, llc>>20)
	} else {
		rc.notef("sparse.spmv_pct_triad omitted: triad arrays are %d MiB each, LLC is %d MiB (need 4x)", 8*elems>>20, llc>>20)
	}
	return nil
}

// probeOps times the matrix-free and float32 operators and the vector
// kernels under PCG at the lib-pcg-mf size. These should move solve_s on
// lib-pcg-mf and leave lib-sync-csr alone.
func probeOps(rc *runCtx, layer metrics) {
	par.SetWorkers(0)
	n := rc.sz.kernelN
	rows := n * n * n
	gen := generator{rc.seed}
	x, y := gen.rhs(rows, "probe-x", 1), make([]float64, rows)
	// A stencil apply reads x and writes y; nothing else is stored.
	s7, s27 := op.NewStencil7(n), op.NewStencil27(n)
	t7 := timeIt(rc.sz.probeBudget, func() { s7.Apply(y, x) })
	layer["op.stencil7_apply_gbps"] = gbps(16*rows, t7)
	layer["op.stencil27_apply_gbps"] = gbps(16*rows, timeIt(rc.sz.probeBudget, func() { s27.Apply(y, x) }))
	a := grid.Laplacian7pt(n)
	csr := op.FromCSR(a)
	tcsr, tsten := timePair(rc.sz.probeBudget, func() { csr.Apply(y, x) }, func() { s7.Apply(y, x) })
	layer["op.stencil_over_csr"] = tcsr / tsten
	a32 := op.NewCSR32(a)
	layer["op.csr32_apply_gbps"] = gbps(a.NNZ()*8+rows*(4+8+8), timeIt(rc.sz.probeBudget, func() { a32.Apply(y, x) }))
	sink := 0.0
	layer["vec.dot_gbps"] = gbps(16*rows, timeIt(rc.sz.probeBudget, func() { sink += vec.Dot(x, y) }))
	layer["vec.axpy_gbps"] = gbps(24*rows, timeIt(rc.sz.probeBudget, func() { vec.AxpyPar(1e-9, y, x) }))
	_ = sink
}

// probeEngine times single cycles on a ready engine (the lib-sync-csr setup,
// one worker). These should move solve_s on lib-sync-csr and req_p50_ms on
// serve-hot.
func probeEngine(rc *runCtx, eng *engine.Engine, layer metrics) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	n := eng.LevelSize(0)
	gen := generator{rc.seed}
	b, x := gen.rhs(n, "probe-b", 2), make([]float64, n)
	w := eng.AcquireWorkspace()
	defer eng.ReleaseWorkspace(w)
	cycle := func(m engine.Method) float64 {
		vec.Zero(x)
		return timeIt(rc.sz.probeBudget, func() { eng.Cycle(m, x, b, w) })
	}
	layer["engine.mult_cycle_ms"] = 1e3 * cycle(engine.Mult)
	layer["engine.multadd_cycle_ms"] = 1e3 * cycle(engine.Multadd)
	layer["engine.afacx_cycle_ms"] = 1e3 * cycle(engine.AFACx)
	vec.Zero(x)
	layer["engine.cycle_allocs"] = mallocs(5, func() { eng.Cycle(engine.Mult, x, b, w) })

	const k = 4
	bw := eng.AcquireBlockWorkspace(k)
	bb, bx := gen.rhs(n*k, "probe-b", 3), make([]float64, n*k)
	layer["engine.block4_cycle_ms_per_rhs"] = 1e3 * timeIt(rc.sz.probeBudget, func() { eng.BlockCycle(engine.Multadd, bx, bb, k, bw) }) / k
	eng.ReleaseBlockWorkspace(bw)

	nc := eng.LevelSize(eng.NumLevels() - 1)
	r, e, scratch := gen.rhs(nc, "probe-b", 4), make([]float64, nc), make([]float64, nc)
	layer["engine.coarse_solve_us"] = 1e6 * timeIt(rc.sz.probeBudget/5, func() { eng.CoarseSolveScratch(e, r, scratch) })

	// The same cycle with the observer attached: the observability budget.
	observer := obs.New(eng.NumLevels())
	vec.Zero(x)
	plain, withObs := timePair(rc.sz.probeBudget,
		func() { eng.Cycle(engine.Mult, x, b, w) },
		func() {
			eng.SetObserver(observer)
			eng.Cycle(engine.Mult, x, b, w)
			eng.SetObserver(nil)
		})
	layer["obs.observer_overhead_pct"] = 100 * (withObs - plain) / plain
}
