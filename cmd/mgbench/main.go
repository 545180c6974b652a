// Command mgbench regenerates the parallel-solver experiments of the
// paper's evaluation: Table I (time / corrects / V-cycles for twelve method
// variants × four smoothers × four matrices), Figure 4 (grid-size
// independence on the stencil sets), Figure 5 (on the FEM Laplace set), and
// Figure 6 (wall-clock versus thread count).
//
// Examples:
//
//	mgbench -table 1                       # all four matrices, scaled protocol
//	mgbench -table 1 -problem 27pt -size 20 -runs 5 -threads 32
//	mgbench -fig 4                         # 7pt and 27pt series
//	mgbench -fig 5                         # mfem-laplace series
//	mgbench -fig 6 -threads-list 4,8,16,32
//	mgbench -msgvol                        # distmem message volume, golden vs sparsified
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"asyncmg/internal/harness"
	"asyncmg/internal/obs"
	"asyncmg/internal/par"
)

// obsGrids over-estimates the deepest hierarchy any benchmark builds;
// out-of-range grid indices are dropped by the observer.
const obsGrids = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgbench: ")

	table := flag.Int("table", 0, "table to regenerate (1)")
	fig := flag.Int("fig", 0, "figure to regenerate (4, 5 or 6)")
	msgvol := flag.Bool("msgvol", false, "print the distmem message-volume table (sent-nnz before/after coarse-operator sparsification)")
	msgvolMethod := flag.String("msgvol-method", "", "additive method for -msgvol: multadd or afacx (default multadd)")
	sparsifyTheta := flag.Float64("sparsify-theta", 0, "sparsification drop threshold for -msgvol (0 = default 0.25)")
	all := flag.Bool("all", false, "regenerate Table I and Figures 4-6 in sequence")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	problem := flag.String("problem", "", "restrict to one problem family")
	size := flag.Int("size", 0, "mesh parameter override (0 = scaled default)")
	runs := flag.Int("runs", 0, "runs per measurement (0 = default)")
	threads := flag.Int("threads", 0, "goroutine budget (0 = default)")
	threadsList := flag.String("threads-list", "", "comma-separated thread counts for -fig 6")
	tau := flag.Float64("tau", 0, "tolerance (0 = 1e-9, the paper's)")
	parWorkers := flag.Int("par-workers", 0, "worker-pool size for the sharded level kernels (0 = GOMAXPROCS)")
	parThreshold := flag.Int("par-threshold", 0, "minimum kernel work before sharding; smaller levels stay serial (0 = default)")
	metricsOut := flag.String("metrics-out", "", "write solver metrics (per-grid relaxation counts, staleness histogram, pool gauges) to this file in exposition format")
	pprofAddr := flag.String("pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	flag.Parse()
	par.SetWorkers(*parWorkers)
	par.SetThreshold(*parThreshold)

	if *table == 0 && *fig == 0 && !*all && !*msgvol {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var o *obs.Observer
	if *metricsOut != "" || *pprofAddr != "" {
		o = obs.New(obsGrids)
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

	if *msgvol {
		cfg := harness.DefaultMsgVolume()
		if *problem != "" {
			cfg.Problem = *problem
		}
		if *size > 0 {
			cfg.Size = *size
		}
		if *msgvolMethod != "" {
			cfg.Method = *msgvolMethod
		}
		if *sparsifyTheta > 0 {
			cfg.Theta = *sparsifyTheta
		}
		if _, err := harness.MsgVolume(os.Stdout, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *all {
		run := func(args ...string) {
			fmt.Printf("\n===== mgbench %s =====\n", strings.Join(args, " "))
		}
		*all = false
		for _, job := range []struct {
			tbl, fg int
		}{{1, 0}, {0, 4}, {0, 5}, {0, 6}} {
			run(fmt.Sprintf("-table %d -fig %d", job.tbl, job.fg))
			*table, *fig = job.tbl, job.fg
			dispatch(table, fig, problem, size, runs, threads, threadsList, tau, o)
		}
		return
	}
	dispatch(table, fig, problem, size, runs, threads, threadsList, tau, o)
}

func dispatch(table, fig *int, problem *string, size, runs, threads *int, threadsList *string, tau *float64, o *obs.Observer) {
	switch {
	case *table == 1:
		problems := harness.AllProblems()
		if *problem != "" {
			problems = []string{*problem}
		}
		for _, p := range problems {
			cfg := harness.DefaultTable1(p)
			if p == harness.ProblemElasticity && *size == 0 {
				cfg.Size = 4 // elasticity DOFs grow 3× faster
			}
			applyOverrides(&cfg.Protocol, *runs, *threads, *tau, o)
			if *size > 0 {
				cfg.Size = *size
			}
			if err := harness.Table1(os.Stdout, cfg); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	case *fig == 4:
		problems := []string{harness.Problem7pt, harness.Problem27pt}
		if *problem != "" {
			problems = []string{*problem}
		}
		for _, p := range problems {
			cfg := harness.DefaultFig4(p)
			applyOverrides(&cfg.Protocol, *runs, *threads, *tau, o)
			if *size > 0 {
				cfg.Sizes = []int{*size}
			}
			if err := harness.Fig4(os.Stdout, cfg); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	case *fig == 5:
		cfg := harness.DefaultFig4(harness.ProblemLaplaceFEM)
		cfg.Agg = 0 // Figure 5: no aggressive coarsening
		cfg.Sizes = []int{6, 8, 10}
		applyOverrides(&cfg.Protocol, *runs, *threads, *tau, o)
		if *size > 0 {
			cfg.Sizes = []int{*size}
		}
		if err := harness.Fig4(os.Stdout, cfg); err != nil {
			log.Fatal(err)
		}
	case *fig == 6:
		problems := harness.AllProblems()
		if *problem != "" {
			problems = []string{*problem}
		}
		for _, p := range problems {
			cfg := harness.DefaultFig6(p)
			if p == harness.ProblemElasticity {
				cfg.Size = 4
				cfg.Agg = 0
				cfg.Protocol.CycleStep = 25
				cfg.Protocol.CycleMax = 600
				cfg.Protocol.Tau = 1e-6
			}
			if p == harness.ProblemLaplaceFEM {
				cfg.Size = 10
				cfg.Agg = 0
			}
			applyOverrides(&cfg.Protocol, *runs, *threads, *tau, o)
			if *size > 0 {
				cfg.Size = *size
			}
			if *threadsList != "" {
				tl, err := parseInts(*threadsList)
				if err != nil {
					log.Fatal(err)
				}
				cfg.Threads = tl
			}
			if err := harness.Fig6(os.Stdout, cfg); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	default:
		log.Fatalf("nothing to do: -table %d -fig %d", *table, *fig)
	}
}

func applyOverrides(p *harness.Protocol, runs, threads int, tau float64, o *obs.Observer) {
	if runs > 0 {
		p.Runs = runs
	}
	if threads > 0 {
		p.Threads = threads
	}
	if tau > 0 {
		p.Tau = tau
	}
	p.Observer = o
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}
