package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"asyncmg/internal/distmem"
	"asyncmg/internal/engine"
	"asyncmg/internal/fault"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/smoother"
)

// FaultConfig parameterizes the fault-injection sweep: one distributed
// Multadd solve per scenario on the 7-point Poisson problem, reporting the
// final relative residual next to the transport and recovery counters.
type FaultConfig struct {
	Problem   string
	Size      int
	Updates   int
	Seed      int64
	DropRates []float64     // the drop-rate sweep rows
	Watchdog  time.Duration // owner watchdog timeout (0 = solver default)
	Timeout   time.Duration // per-solve context deadline guard
	Agg       int
	// Observer, when non-nil, accumulates every scenario's per-grid
	// counts, staleness observations and fault/recovery counters under one
	// registry (for -metrics-out style exposition).
	Observer *obs.Observer
}

// DefaultFault mirrors the acceptance scenarios of the robustness suite at
// a scale that runs in seconds.
func DefaultFault() FaultConfig {
	return FaultConfig{
		Problem:   Problem7pt,
		Size:      10,
		Updates:   40,
		Seed:      1,
		DropRates: []float64{0.05, 0.10, 0.20},
		Watchdog:  5 * time.Millisecond,
		Timeout:   2 * time.Minute,
		Agg:       1,
	}
}

// faultScenario is one row of the sweep.
type faultScenario struct {
	name string
	cfg  fault.Config
}

// FaultSweep prints the fault-injection table: each scenario's converged
// relative residual alongside the injected-fault and recovery counters.
func FaultSweep(w io.Writer, cfg FaultConfig) error {
	s, err := buildSetup(cfg.Problem, cfg.Size, PaperSetup(cfg.Problem, cfg.Agg, smoother.WJacobi))
	if err != nil {
		return err
	}
	b := grid.RandomRHS(s.LevelSize(0), 42)
	l := s.NumLevels()

	scenarios := []faultScenario{
		{name: "none", cfg: fault.Config{Seed: cfg.Seed}},
	}
	for _, dr := range cfg.DropRates {
		scenarios = append(scenarios, faultScenario{
			name: fmt.Sprintf("drop=%.2f", dr),
			cfg:  fault.Config{Seed: cfg.Seed, DropRate: dr},
		})
	}
	scenarios = append(scenarios,
		faultScenario{
			name: "dup=0.50",
			cfg:  fault.Config{Seed: cfg.Seed, DupRate: 0.5},
		},
		faultScenario{
			name: "reorder",
			cfg: fault.Config{
				Seed: cfg.Seed, DelayRate: 0.3,
				BaseDelay: 50 * time.Microsecond, ExtraDelay: 2 * time.Millisecond,
			},
		},
		faultScenario{
			name: "crash w1@5",
			cfg:  fault.Config{Seed: cfg.Seed, CrashAt: map[int]int{1: 5}},
		},
		faultScenario{
			name: "drop+crash",
			cfg:  fault.Config{Seed: cfg.Seed, DropRate: 0.20, CrashAt: map[int]int{1: 5}},
		},
		faultScenario{
			name: "dead-coarse",
			cfg:  fault.Config{Seed: cfg.Seed, DeadGrids: []int{l - 1}},
		},
	)

	fmt.Fprintf(w, "# Fault sweep (%s n=%d): distributed Multadd, %d corrections/grid, %d levels, seed %d\n",
		cfg.Problem, cfg.Size, cfg.Updates, l, cfg.Seed)
	fmt.Fprintf(w, "%-12s %12s %6s %6s %6s %7s %8s %8s %7s %8s\n",
		"scenario", "relres", "drops", "dups", "crash", "respawn", "watchdog", "resets", "stale", "retired")
	for _, sc := range scenarios {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		res, err := distmem.Solve(ctx, s, b, distmem.Config{
			Method:          engine.Multadd,
			MaxCorrections:  cfg.Updates,
			WatchdogTimeout: cfg.Watchdog,
			Fault:           sc.cfg,
			Observer:        cfg.Observer,
		})
		cancel()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		relres := fmt.Sprintf("%12.3e", res.RelRes)
		if res.Diverged {
			relres += "†"
		}
		retired := "-"
		if len(res.RetiredGrids) > 0 {
			retired = fmt.Sprint(res.RetiredGrids)
		}
		fmt.Fprintf(w, "%-12s %s %6d %6d %6d %7d %8d %8d %7d %8s\n",
			sc.name, relres, res.Drops, res.Duplicates, res.Crashes,
			res.Respawns, res.WatchdogFires, res.DivergenceResets, res.StaleDrops, retired)
	}
	return nil
}
