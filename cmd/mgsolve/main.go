// Command mgsolve solves one generated test problem with a chosen multigrid
// method and prints the convergence history, hierarchy statistics, and (for
// parallel runs) the per-grid correction counts.
//
// The solve knobs are the service's request fields under the same names
// (internal/solve): -method, -smoother, -omega, -cycles, -mode, -threads,
// -seed, -solver, -tol, -maxiter, -restart and the -damp… family, plus
// -problem and -size. A flag line and the equivalent /solve body resolve
// to the same plan and the same residual history.
//
// Examples:
//
//	mgsolve -problem 27pt -size 16 -method multadd -smoother async-gs -mode async -threads 8
//	mgsolve -problem mfem-laplace -size 12 -method mult -cycles 40
//	mgsolve -matrix system.mtx -method mult -cycles 40
//	mgsolve -problem 27pt -size 16 -solver pcg -tol 1e-8       # AMG-preconditioned CG
//	mgsolve -problem conv-diff -size 16 -solver fgmres -method multadd
//	mgsolve -problem 7pt -size 16 -mode async -threads 8 -damping auto -damp_rollback
//	mgsolve -problem 7pt -size 16 -mode dist -method afacx
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/problem"
	"asyncmg/internal/solve"
)

// config is what mgsolve's own flags select beyond the solve plan: the
// operator source, the hierarchy setup, and the outputs.
type config struct {
	matrix     string
	aggressive int
	setup      solve.SetupFlags
	parWorkers int
	obs        obs.Flags
}

// parseArgs turns the command line into mgsolve's configuration and the
// validated solve plan. Every bad knob is an error here, before any setup.
func parseArgs(args []string) (config, *solve.Plan, error) {
	fs := flag.NewFlagSet("mgsolve", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned, not printed

	spec := solve.Spec{Problem: problem.Laplace7pt, Size: 12, Seed: 1}
	spec.Bind(fs)
	var c config
	fs.StringVar(&c.matrix, "matrix", "", "Matrix Market file to solve instead of a generated problem")
	fs.IntVar(&c.aggressive, "aggressive", 1, "aggressive coarsening levels")
	c.setup.Bind(fs)
	write := fs.String("write", "lock", "async write mode: lock, atomic")
	res := fs.String("res", "local", "async residual mode: local, global, residual")
	readHold := fs.Int("read-hold", 0, "perturbation: each grid refreshes its read only every N of its own corrections (0/1 = off)")
	stragglers := fs.String("stragglers", "", "perturbation: comma-separated grid indices that refresh 4x slower")
	fs.IntVar(&c.parWorkers, "par-workers", 0, "worker-pool size for the sharded level kernels (0 = GOMAXPROCS)")
	c.obs.Bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return c, nil, err
	}
	if c.matrix != "" {
		// An uploaded operator: validated like a /solve/matrix query.
		spec.Problem, spec.Size = "", 0
	}
	plan, err := spec.Validate()
	if err != nil {
		return c, nil, err
	}

	// The async runtime's write and residual modes and the perturbations
	// are mgsolve-only overrides on the resolved plan.
	switch *write {
	case "lock":
		plan.Async.Write = async.LockWrite
	case "atomic":
		plan.Async.Write = async.AtomicWrite
	default:
		return c, nil, fmt.Errorf("unknown write mode %q (want lock, atomic)", *write)
	}
	switch *res {
	case "local":
		plan.Async.Res = async.LocalRes
	case "global":
		plan.Async.Res = async.GlobalRes
	case "residual":
		plan.Async.Res = async.ResidualRes
	default:
		return c, nil, fmt.Errorf("unknown residual mode %q (want local, global, residual)", *res)
	}
	plan.Async.Perturb.ReadHold = *readHold
	for _, f := range strings.Split(*stragglers, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		k, err := strconv.Atoi(f)
		if err != nil {
			return c, nil, fmt.Errorf("bad -stragglers entry %q", f)
		}
		plan.Async.Perturb.Stragglers = append(plan.Async.Perturb.Stragglers, k)
	}
	return c, plan, nil
}

// build runs the AMG setup of the matrix file or the generated problem
// and prints the operator line.
func build(c config, plan *solve.Plan) (*engine.Engine, error) {
	opt := amg.DefaultOptions()
	if o, err := c.setup.AMG(); err != nil {
		return nil, err
	} else if o != nil {
		opt = *o
	}
	opt.AggressiveLevels = c.aggressive
	src := solve.Source{Problem: plan.Problem, Size: plan.Size}
	name := fmt.Sprintf("problem %s size %d", plan.Problem, plan.Size)
	if c.matrix != "" {
		a, err := mtx.ReadFile(c.matrix)
		if err != nil {
			return nil, err
		}
		src, name = solve.Source{Matrix: a}, "matrix "+c.matrix
	}
	e, err := solve.Build(src, opt, plan.Smoother, c.setup.MatrixFree)
	if err != nil {
		return nil, err
	}
	fine, form := e.Ops[0], "nonzeros"
	if op.AsCSR(fine) == nil {
		form = "stencil nonzeros (matrix-free)"
	}
	fmt.Printf("%s: %d rows, %d %s\n", name, fine.Rows(), fine.NNZEquivalent(), form)
	return e, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgsolve: ")

	c, plan, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	par.SetWorkers(c.parWorkers)

	o, stopObs, err := c.obs.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	// finish flushes the observability outputs on every successful path
	// (error paths exit through log.Fatal, which skips the flush).
	finish := func() {
		if err := stopObs(); err != nil {
			log.Fatal(err)
		}
	}
	defer finish()

	setup, err := build(c, plan)
	if err != nil {
		log.Fatal(err)
	}
	setup.SetObserver(o)
	fmt.Printf("hierarchy: %d levels, sizes %v, operator complexity %.2f, %d bytes resident\n",
		setup.NumLevels(), setup.H.GridSizes(), setup.H.OperatorComplexity(), setup.HierarchyBytes())
	if st := setup.Setup; st != nil && len(st.SparsifyLevels) > 0 {
		fmt.Printf("sparsify: %d coarse nnz dropped across %d levels (%d guard fallbacks, %v)\n",
			st.DroppedNNZ(), len(st.SparsifyLevels), st.SparsifyFallbacks, st.Sparsify)
	}

	b, err := plan.RightHandSide(setup.LevelSize(0))
	if err != nil {
		log.Fatal(err)
	}
	out, err := solve.Run(context.Background(), setup, plan, b, o)
	if err != nil {
		log.Fatal(err)
	}
	m := plan.Method
	failed := false
	switch {
	case plan.Mode == solve.ModeAsync:
		res := out.Async
		fmt.Printf("async %v %v %v: rel res %.3e in %v (diverged=%v)\n",
			m, plan.Async.Write, plan.Async.Res, res.RelRes, res.Elapsed, res.Diverged)
		fmt.Printf("per-grid corrections: %v (avg %.1f)\n", res.Corrections, res.AvgCorrects)
		if plan.Async.Damping.Mode != async.DampOff {
			fmt.Printf("damping %v: final ω per grid %v (tightens %d, relaxes %d, rolled back=%v)\n",
				plan.Async.Damping.Mode, fmt.Sprintf("%.3f", res.FinalOmega), res.DampTightens, res.DampRelaxes, res.RolledBack)
		}
		failed = res.Diverged
	case plan.Mode == solve.ModeDist:
		fmt.Printf("dist %v: rel res %.3e after %d corrections per grid (diverged=%v)\n",
			m, out.RelRes, out.Cycles, out.Diverged)
		failed = out.Diverged
	case plan.Solver != solve.SolverCycle:
		fmt.Printf("%s(%v-preconditioned) convergence (rel res per iteration):\n", plan.Solver, m)
		for t, h := range out.History {
			fmt.Printf("  iter %3d: %.6e\n", t, h)
		}
		fmt.Printf("%s: rel res %.3e in %d iterations (converged=%v)\n",
			plan.Solver, out.RelRes, out.Iterations, out.Converged)
		failed = !out.Converged
	default:
		fmt.Printf("sequential %v convergence (rel res per cycle):\n", m)
		for t, h := range out.History {
			fmt.Printf("  cycle %3d: %.6e\n", t, h)
		}
		factor := setup.ConvergenceFactor(m, 30, plan.Seed)
		fmt.Printf("asymptotic convergence factor (power iteration): %.4f\n", factor)
		// A cycle that does not contract (or a factor or history gone
		// non-finite) is a failed solve, like a diverged async one.
		failed = !(factor < 1)
		if n := len(out.History); n > 0 {
			failed = failed || math.IsNaN(out.History[n-1]) || math.IsInf(out.History[n-1], 0)
		}
	}
	if failed {
		finish() // os.Exit skips the deferred flush
		os.Exit(1)
	}
}
