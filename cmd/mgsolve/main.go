// Command mgsolve solves one generated test problem with a chosen multigrid
// method and prints the convergence history, hierarchy statistics, and (for
// parallel runs) the per-grid correction counts.
//
// Examples:
//
//	mgsolve -problem 27pt -size 16 -method multadd -smoother async-gs -async -threads 8
//	mgsolve -problem mfem-laplace -size 12 -method mult -cycles 40
//	mgsolve -matrix system.mtx -method mult -cycles 40
//	mgsolve -problem 27pt -size 16 -solver pcg -tol 1e-8       # AMG-preconditioned CG
//	mgsolve -problem conv-diff -size 16 -solver fgmres -method multadd
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/harness"
	"asyncmg/internal/krylov"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgsolve: ")

	problem := flag.String("problem", "7pt", "problem family: 7pt, 27pt, mfem-laplace, mfem-elasticity")
	matrix := flag.String("matrix", "", "Matrix Market file to solve instead of a generated problem")
	size := flag.Int("size", 12, "mesh parameter (grid length / mesh resolution)")
	method := flag.String("method", "multadd", "multigrid method: mult, multadd, afacx, bpx")
	smo := flag.String("smoother", "w-jacobi", "smoother: w-jacobi, l1-jacobi, hybrid-jgs, async-gs")
	omega := flag.Float64("omega", 0, "Jacobi weight (0 = family default: 0.9 stencil, 0.5 FEM)")
	cycles := flag.Int("cycles", 30, "number of V-cycles (t_max)")
	solver := flag.String("solver", "cycle", "outer solver: cycle (plain multigrid cycling), pcg or fgmres (AMG-preconditioned Krylov)")
	tol := flag.Float64("tol", 1e-8, "relative-residual tolerance for -solver pcg|fgmres")
	maxiter := flag.Int("maxiter", 500, "iteration cap for -solver pcg|fgmres")
	restart := flag.Int("restart", 0, "FGMRES restart length m (0 = default 30)")
	aggressive := flag.Int("aggressive", 1, "aggressive coarsening levels")
	matrixFree := flag.Bool("matrix-free", false, "apply the fine level from the stencil without materializing CSR (7pt/27pt only)")
	f32Coarse := flag.Bool("f32-coarse", false, "store coarse operators and interpolants in float32")
	sparsify := flag.Bool("sparsify", false, "sparsify coarse operators after RAP (strength-aware dropping with the per-level convergence guard)")
	sparsifyTheta := flag.Float64("sparsify-theta", 0.25, "drop threshold for -sparsify")
	sparsifyMode := flag.String("sparsify-mode", "lump", "compensation mode for -sparsify: lump, rescale, drop")
	runAsync := flag.Bool("async", false, "run the asynchronous parallel solver instead of the sequential one")
	threads := flag.Int("threads", 8, "goroutines for -async")
	writeMode := flag.String("write", "atomic", "async write mode: lock, atomic")
	resMode := flag.String("res", "local", "async residual mode: local, global, residual")
	damp := flag.Float64("damp", 0, "fixed correction damping factor ω in (0,1] for -async additive runs (0 = off)")
	dampAuto := flag.Bool("damp-auto", false, "adaptive staleness-driven damping with rollback-last (overrides -damp's mode; -damp then sets the starting/maximum ω)")
	readHold := flag.Int("read-hold", 0, "perturbation: each grid refreshes its read only every N of its own corrections (0/1 = off)")
	stragglers := flag.String("stragglers", "", "perturbation: comma-separated grid indices that refresh 4x slower")
	seed := flag.Int64("seed", 1, "right-hand-side seed")
	parWorkers := flag.Int("par-workers", 0, "worker-pool size for the sharded level kernels (0 = GOMAXPROCS)")
	parThreshold := flag.Int("par-threshold", 0, "minimum kernel work before sharding; smaller levels stay serial (0 = default)")
	metricsOut := flag.String("metrics-out", "", "write solver metrics (per-grid relaxation counts, staleness histogram, pool gauges) to this file in exposition format")
	pprofAddr := flag.String("pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	flag.Parse()
	par.SetWorkers(*parWorkers)
	par.SetThreshold(*parThreshold)

	var o *obs.Observer
	if *metricsOut != "" || *pprofAddr != "" {
		o = obs.New(32).WithTrace(4096)
	}
	if *pprofAddr != "" {
		addr, err := obs.ServeDebug(*pprofAddr, o)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving metrics and pprof on http://%s", addr)
	}
	stopTrace, err := obs.StartTrace(*traceOut)
	if err != nil {
		log.Fatal(err)
	}
	// finish flushes the observability outputs on every successful path
	// (error paths exit through log.Fatal, which skips the flush).
	finish := func() {
		if err := stopTrace(); err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteMetricsFile(*metricsOut, o); err != nil {
			log.Fatal(err)
		}
	}
	defer finish()

	var a *sparse.CSR
	var aOp op.Operator
	if *matrix != "" {
		a, err = mtx.ReadFile(*matrix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matrix %s: %d rows, %d nonzeros\n", *matrix, a.Rows, a.NNZ())
	} else if *matrixFree {
		var ok bool
		aOp, ok = harness.BuildProblemOperator(*problem, *size)
		if !ok {
			log.Fatalf("-matrix-free needs a structured problem (7pt, 27pt), got %q", *problem)
		}
		fmt.Printf("problem %s size %d: %d rows, %d stencil nonzeros (matrix-free)\n",
			*problem, *size, aOp.Rows(), aOp.NNZEquivalent())
	} else {
		a, err = harness.BuildProblem(*problem, *size)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("problem %s size %d: %d rows, %d nonzeros\n", *problem, *size, a.Rows, a.NNZ())
	}

	if *omega == 0 {
		*omega = harness.DefaultOmega(*problem)
	}
	kind, err := parseSmoother(*smo)
	if err != nil {
		log.Fatal(err)
	}
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = *aggressive
	if *f32Coarse {
		opt.CoarsePrecision = op.CoarseFloat32
	}
	if *sparsify {
		mode, err := sparse.ParseSparsifyMode(*sparsifyMode)
		if err != nil {
			log.Fatal(err)
		}
		opt.Sparsify = amg.SparsifyOptions{Theta: *sparsifyTheta, Mode: mode}
	}
	if *problem == harness.ProblemElasticity && *matrix == "" {
		opt.NumFunctions = 3 // unknown approach for the vector problem
	}
	scfg := smoother.Config{Kind: kind, Omega: *omega, Blocks: 1}
	var setup *engine.Engine
	if aOp != nil {
		setup, err = engine.NewOperator(aOp, opt, scfg)
	} else {
		setup, err = engine.New(a, opt, scfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchy: %d levels, sizes %v, operator complexity %.2f, %d bytes resident\n",
		setup.NumLevels(), setup.H.GridSizes(), setup.H.OperatorComplexity(), setup.HierarchyBytes())
	if st := setup.Setup; st != nil && len(st.SparsifyLevels) > 0 {
		fmt.Printf("sparsify: %d coarse nnz dropped across %d levels (%d guard fallbacks, %v)\n",
			st.DroppedNNZ(), len(st.SparsifyLevels), st.SparsifyFallbacks, st.Sparsify)
	}

	m, err := parseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}
	b := grid.RandomRHS(setup.LevelSize(0), *seed)

	if *solver != "cycle" {
		if *runAsync {
			log.Fatalf("-solver %s runs the synchronous Krylov path; drop -async", *solver)
		}
		if *solver == "pcg" && m == engine.AFACx {
			log.Fatal("afacx is not an SPD preconditioner; use -solver fgmres with it")
		}
		setup.SetObserver(o)
		p := krylov.NewMGPreconditioner(setup, m)
		defer p.Release()
		opt := krylov.DefaultOptions()
		opt.Tol, opt.MaxIter, opt.Restart = *tol, *maxiter, *restart
		opt.M, opt.Observer = p, o
		var res krylov.Result
		switch *solver {
		case "pcg":
			res, err = krylov.PCG(setup.Ops[0], b, opt)
		case "fgmres":
			res, err = krylov.FGMRES(setup.Ops[0], b, opt)
		default:
			log.Fatalf("unknown solver %q (want cycle, pcg, fgmres)", *solver)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s(%v-preconditioned) convergence (rel res per iteration):\n", *solver, m)
		for t, h := range res.History {
			fmt.Printf("  iter %3d: %.6e\n", t, h)
		}
		fmt.Printf("%s: rel res %.3e in %d iterations (converged=%v)\n",
			*solver, res.RelRes, res.Iterations, res.Converged)
		if !res.Converged {
			finish()
			os.Exit(1)
		}
		return
	}

	if *runAsync {
		wm := async.AtomicWrite
		if *writeMode == "lock" {
			wm = async.LockWrite
		} else if *writeMode != "atomic" {
			log.Fatalf("unknown write mode %q", *writeMode)
		}
		var rm async.ResMode
		switch *resMode {
		case "local":
			rm = async.LocalRes
		case "global":
			rm = async.GlobalRes
		case "residual":
			rm = async.ResidualRes
		default:
			log.Fatalf("unknown residual mode %q", *resMode)
		}
		policy := async.DampingPolicy{}
		if *dampAuto {
			policy = async.DampingPolicy{Mode: async.DampAuto, Omega: *damp, Rollback: true}
		} else if *damp != 0 {
			policy = async.DampingPolicy{Mode: async.DampFixed, Omega: *damp}
		}
		perturb := async.Perturb{ReadHold: *readHold}
		for _, f := range strings.Split(*stragglers, ",") {
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			var k int
			if _, err := fmt.Sscanf(f, "%d", &k); err != nil {
				log.Fatalf("bad -stragglers entry %q", f)
			}
			perturb.Stragglers = append(perturb.Stragglers, k)
		}
		res, err := async.Solve(context.Background(), setup, b, async.Config{
			Method: m, Write: wm, Res: rm,
			Criterion: async.Criterion1, Threads: *threads, MaxCycles: *cycles,
			Damping: policy, Perturb: perturb,
			Observer: o,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("async %v %v %v: rel res %.3e in %v (diverged=%v)\n",
			m, wm, rm, res.RelRes, res.Elapsed, res.Diverged)
		fmt.Printf("per-grid corrections: %v (avg %.1f)\n", res.Corrections, res.AvgCorrects)
		if policy.Mode != async.DampOff {
			fmt.Printf("damping %v: final ω per grid %v (tightens %d, relaxes %d, rolled back=%v)\n",
				policy.Mode, formatOmegas(res.FinalOmega), res.DampTightens, res.DampRelaxes, res.RolledBack)
		}
		if res.Diverged {
			finish() // os.Exit skips the deferred flush
			os.Exit(1)
		}
		return
	}

	setup.SetObserver(o)
	_, hist := setup.Solve(m, b, *cycles)
	fmt.Printf("sequential %v convergence (rel res per cycle):\n", m)
	for t, h := range hist {
		fmt.Printf("  cycle %3d: %.6e\n", t, h)
	}
	fmt.Printf("asymptotic convergence factor (power iteration): %.4f\n",
		setup.ConvergenceFactor(m, 30, *seed))
}

// formatOmegas prints the per-grid damping factors compactly.
func formatOmegas(ws []float64) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, w := range ws {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.3f", w)
	}
	sb.WriteByte(']')
	return sb.String()
}

func parseMethod(s string) (engine.Method, error) {
	switch strings.ToLower(s) {
	case "mult":
		return engine.Mult, nil
	case "multadd":
		return engine.Multadd, nil
	case "afacx":
		return engine.AFACx, nil
	case "bpx":
		return engine.BPX, nil
	}
	return 0, fmt.Errorf("unknown method %q (want mult, multadd, afacx, bpx)", s)
}

func parseSmoother(s string) (smoother.Kind, error) {
	switch strings.ToLower(s) {
	case "w-jacobi", "wjacobi", "jacobi":
		return smoother.WJacobi, nil
	case "l1-jacobi", "l1jacobi", "l1":
		return smoother.L1Jacobi, nil
	case "hybrid-jgs", "hybrid", "jgs":
		return smoother.HybridJGS, nil
	case "async-gs", "asyncgs", "gs":
		return smoother.AsyncGS, nil
	case "l1-hybrid-jgs", "l1-hybrid":
		return smoother.L1HybridJGS, nil
	}
	return 0, fmt.Errorf("unknown smoother %q (want w-jacobi, l1-jacobi, hybrid-jgs, async-gs, l1-hybrid-jgs)", s)
}
