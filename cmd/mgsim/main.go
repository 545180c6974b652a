// Command mgsim runs the Section III model simulations and regenerates the
// series of Figures 1 and 2 of the paper: final relative residual after a
// fixed number of corrections versus grid length, sweeping the minimum
// update probability α (Figure 1) or the maximum read delay δ (Figure 2).
//
// It also runs the fault-injection sweep over the distributed solver:
// `-fault` prints the converged residual plus fault/recovery counters for a
// set of degraded-transport scenarios (drops, duplicates, reordering, a
// worker crash, a permanently dead coarse grid).
//
// Examples:
//
//	mgsim -fig 1                                # both methods, paper defaults (scaled)
//	mgsim -fig 2 -sizes 10,14,18 -runs 10
//	mgsim -fig 1 -method afacx -full            # paper-scale sizes 40..80 (slow)
//	mgsim -fault                                # fault sweep, default scenarios
//	mgsim -fault -drop 0.1,0.3 -seed 7 -updates 60
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"asyncmg/internal/engine"
	"asyncmg/internal/harness"
	"asyncmg/internal/model"
	"asyncmg/internal/obs"
)

// obsGrids over-estimates the deepest hierarchy the sweeps build;
// out-of-range grid indices are dropped by the observer, so the
// exposition simply carries a few zero rows.
const obsGrids = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgsim: ")

	fig := flag.Int("fig", 1, "figure to regenerate: 1 (semi-async) or 2 (full-async)")
	method := flag.String("method", "both", "multadd, afacx, or both")
	sizes := flag.String("sizes", "", "comma-separated grid lengths (default scaled; -full for paper scale)")
	runs := flag.Int("runs", 5, "runs per data point (paper: 20)")
	updates := flag.Int("updates", 20, "corrections per grid (paper: 20)")
	full := flag.Bool("full", false, "use the paper's sizes 40,50,...,80 (slow: hours)")
	faultSweep := flag.Bool("fault", false, "run the distributed fault-injection sweep instead of a figure")
	drop := flag.String("drop", "", "comma-separated drop rates for the -fault sweep (default 0.05,0.10,0.20)")
	seed := flag.Int64("seed", 1, "fault-schedule seed for the -fault sweep")
	staleness := flag.Bool("staleness", false, "run the staleness × damping-policy stability sweep instead of a figure")
	holds := flag.String("holds", "", "comma-separated uniform read-holds for the -staleness sweep (default 1,4,8)")
	jsonOut := flag.String("out", "", "write the -staleness stability map to this file as JSON")
	metricsOut := flag.String("metrics-out", "", "write solver metrics (per-grid relaxation counts, staleness histogram, fault counters) to this file in exposition format")
	pprofAddr := flag.String("pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	flag.Parse()

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

	if *staleness {
		cfg := harness.DefaultStaleness()
		cfg.Seed = *seed
		cfg.Observer = o
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "updates" {
				cfg.Cycles = *updates
			}
		})
		if *holds != "" {
			hs, err := parseSizes(*holds, false)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Holds = hs
		}
		m, err := harness.StalenessSweep(os.Stdout, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	if *faultSweep {
		cfg := harness.DefaultFault()
		cfg.Seed = *seed
		cfg.Observer = o
		// -updates overrides the sweep's own default only when set explicitly.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "updates" {
				cfg.Updates = *updates
			}
		})
		if *drop != "" {
			rates, err := parseRates(*drop)
			if err != nil {
				log.Fatal(err)
			}
			cfg.DropRates = rates
		}
		if err := harness.FaultSweep(os.Stdout, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	sz, err := parseSizes(*sizes, *full)
	if err != nil {
		log.Fatal(err)
	}
	methods, err := parseMethods(*method)
	if err != nil {
		log.Fatal(err)
	}

	switch *fig {
	case 1:
		for _, m := range methods {
			cfg := harness.DefaultFig1(m)
			cfg.Sizes = sz
			cfg.Runs = *runs
			cfg.Updates = *updates
			cfg.Observer = o
			if err := harness.Fig1(os.Stdout, cfg); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	case 2:
		for _, m := range methods {
			for _, v := range []model.Variant{model.FullAsyncSolution, model.FullAsyncResidual} {
				cfg := harness.DefaultFig2(m, v)
				cfg.Sizes = sz
				cfg.Runs = *runs
				cfg.Updates = *updates
				cfg.Observer = o
				if err := harness.Fig2(os.Stdout, cfg); err != nil {
					log.Fatal(err)
				}
				fmt.Println()
			}
		}
	default:
		log.Fatalf("unknown figure %d (want 1 or 2)", *fig)
	}
}

func parseSizes(s string, full bool) ([]int, error) {
	if s == "" {
		if full {
			return []int{40, 50, 60, 70, 80}, nil
		}
		return []int{10, 14, 18}, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad drop rate %q: %v", f, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("drop rate %g outside [0, 1]", r)
		}
		out = append(out, r)
	}
	return out, nil
}

func parseMethods(s string) ([]engine.Method, error) {
	switch strings.ToLower(s) {
	case "multadd":
		return []engine.Method{engine.Multadd}, nil
	case "afacx":
		return []engine.Method{engine.AFACx}, nil
	case "both":
		return []engine.Method{engine.AFACx, engine.Multadd}, nil
	}
	return nil, fmt.Errorf("unknown method %q (want multadd, afacx, both)", s)
}
