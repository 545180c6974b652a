package harness

import (
	"context"
	"fmt"
	"math"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
)

// MethodSpec names one row of Table I: a solver variant with its write and
// residual modes.
type MethodSpec struct {
	Label string
	Cfg   async.Config // Method, Sync, Write, Res (Criterion/Threads/MaxCycles set by the protocol)
}

// TableIMethods returns the twelve method variants of Table I, in the
// paper's row order.
func TableIMethods() []MethodSpec {
	return []MethodSpec{
		{"sync Mult", async.Config{Method: engine.Mult, Sync: true}},
		{"sync Multadd, lock-write", async.Config{Method: engine.Multadd, Sync: true, Write: async.LockWrite}},
		{"sync Multadd, atomic-write", async.Config{Method: engine.Multadd, Sync: true, Write: async.AtomicWrite}},
		{"sync AFACx, lock-write", async.Config{Method: engine.AFACx, Sync: true, Write: async.LockWrite}},
		{"sync AFACx, atomic-write", async.Config{Method: engine.AFACx, Sync: true, Write: async.AtomicWrite}},
		{"AFACx, lock-write", async.Config{Method: engine.AFACx, Write: async.LockWrite, Res: async.LocalRes}},
		{"AFACx, atomic-write", async.Config{Method: engine.AFACx, Write: async.AtomicWrite, Res: async.LocalRes}},
		{"Multadd, lock-write, global-res", async.Config{Method: engine.Multadd, Write: async.LockWrite, Res: async.GlobalRes}},
		{"Multadd, lock-write, local-res", async.Config{Method: engine.Multadd, Write: async.LockWrite, Res: async.LocalRes}},
		{"Multadd, atomic-write, global-res", async.Config{Method: engine.Multadd, Write: async.AtomicWrite, Res: async.GlobalRes}},
		{"Multadd, atomic-write, local-res", async.Config{Method: engine.Multadd, Write: async.AtomicWrite, Res: async.LocalRes}},
		{"r-Multadd, atomic-write, local-res", async.Config{Method: engine.Multadd, Write: async.AtomicWrite, Res: async.ResidualRes}},
	}
}

// TTResult is one time-to-tolerance measurement (one Table I cell triple).
type TTResult struct {
	// Seconds is the mean wall-clock solve time of the first cycle count
	// whose mean relative residual fell below the tolerance.
	Seconds float64
	// Corrects is the paper's Corrects column: mean per-grid corrections
	// at that cycle count.
	Corrects float64
	// Cycles is the first t_max that reached the tolerance.
	Cycles int
	// Diverged marks the paper's †: the iterates became non-finite or the
	// residual grew without bound.
	Diverged bool
	// NotConverged is set when no cycle count within the sweep reached the
	// tolerance but the method was not diverging (rendered as ">max").
	NotConverged bool
}

// Protocol is the measurement procedure of Section V.
type Protocol struct {
	// Tau is the relative-residual tolerance (paper: 1e-9).
	Tau float64
	// CycleStep and CycleMax sweep t_max = CycleStep, 2·CycleStep, ...,
	// CycleMax (paper: 5, 10, ..., 100).
	CycleStep, CycleMax int
	// Runs is the number of repetitions averaged per cycle count
	// (paper: 20).
	Runs int
	// Threads is the goroutine budget (paper: 272 for Table I).
	Threads int
	// Seed0 seeds the random right-hand sides; run i uses Seed0 + i.
	Seed0 int64
	// Observer, when non-nil, accumulates per-grid relaxation/correction
	// counts and staleness observations across every solve the protocol
	// performs (prescreens included).
	Observer *obs.Observer
}

// DefaultProtocol returns a scaled-down protocol suitable for this
// container (the paper's full protocol is Tau 1e-9, cycles up to 100,
// 20 runs, 272 threads).
func DefaultProtocol() Protocol {
	return Protocol{Tau: 1e-9, CycleStep: 10, CycleMax: 300, Runs: 3, Threads: 16, Seed0: 1}
}

// TimeToTol measures one method on one setup per the protocol: for each
// cycle count, it averages the wall-clock time and final relative residual
// over p.Runs runs with fresh random right-hand sides, then reports the
// first cycle count whose mean residual is below p.Tau.
func (p Protocol) TimeToTol(s *engine.Engine, spec MethodSpec) TTResult {
	// Prescreen at the largest cycle count: if even CycleMax cycles do not
	// reach the tolerance on the first right-hand side, no smaller count
	// will, so report immediately instead of grinding through the whole
	// ascending sweep. (Divergence is detected here too.)
	res, err := p.solve(s, spec, 0, async.Criterion2, p.CycleMax)
	switch {
	case err != nil || blewUp(res):
		return TTResult{Diverged: true}
	case res.RelRes >= p.Tau*10:
		// Not within an order of magnitude of the tolerance even at
		// the full budget (asynchronous runs are noisy, so borderline
		// cases still take the full sweep below).
		return TTResult{NotConverged: true}
	}
	for cycles := p.CycleStep; cycles <= p.CycleMax; cycles += p.CycleStep {
		var sumRes, sumTime, sumCorr float64
		for run := 0; run < p.Runs; run++ {
			res, err := p.solve(s, spec, run, async.Criterion2, cycles)
			if err != nil || blewUp(res) {
				return TTResult{Diverged: true}
			}
			sumRes += res.RelRes
			sumTime += res.Elapsed.Seconds()
			sumCorr += res.AvgCorrects
		}
		meanRes := sumRes / float64(p.Runs)
		if meanRes < p.Tau {
			return TTResult{
				Seconds:  sumTime / float64(p.Runs),
				Corrects: sumCorr / float64(p.Runs),
				Cycles:   cycles,
			}
		}
	}
	return TTResult{NotConverged: true}
}

// MeanRelRes runs the method for a fixed cycle count and returns the mean
// relative residual over p.Runs runs (the quantity plotted in Figures 4
// and 5).
func (p Protocol) MeanRelRes(s *engine.Engine, spec MethodSpec, cycles int) (float64, bool) {
	var sum float64
	for run := 0; run < p.Runs; run++ {
		res, err := p.solve(s, spec, run, async.Criterion1, cycles)
		if err != nil || res.Diverged {
			return math.Inf(1), true
		}
		sum += res.RelRes
	}
	return sum / float64(p.Runs), false
}

// solve runs one protocol solve: the method for cycles cycles under the
// stopping criterion, on the right-hand side of the given run.
func (p Protocol) solve(s *engine.Engine, spec MethodSpec, run int, crit async.Criterion, cycles int) (*async.Result, error) {
	cfg := spec.Cfg
	cfg.Criterion, cfg.Threads, cfg.MaxCycles, cfg.Observer = crit, p.Threads, cycles, p.Observer
	return async.Solve(context.Background(), s, grid.RandomRHS(s.LevelSize(0), p.Seed0+int64(run)), cfg)
}

// blewUp reports the paper's †: the iterates became non-finite or the
// residual grew without bound.
func blewUp(res *async.Result) bool {
	return res.Diverged || math.IsNaN(res.RelRes) || math.IsInf(res.RelRes, 0) || res.RelRes > 1e6
}

// FormatTT renders a TTResult the way Table I does: † for divergence,
// ">max" when the cycle budget ran out without convergence.
func FormatTT(r TTResult) string {
	switch {
	case r.Diverged:
		return fmt.Sprintf("%10s %8s %8s", "†", "†", "†")
	case r.NotConverged:
		return fmt.Sprintf("%10s %8s %8s", ">max", ">max", ">max")
	}
	return fmt.Sprintf("%10.4f %8.0f %8d", r.Seconds, r.Corrects, r.Cycles)
}

// relResAfter runs the sequential reference solver for a fixed number of
// cycles and reports the final relative residual (used as the "sync"
// baseline in the model figures).
func relResAfter(s *engine.Engine, method engine.Method, b []float64, cycles int) float64 {
	_, hist := s.Solve(method, b, cycles)
	return hist[len(hist)-1]
}

// geoMean returns the geometric mean of positive values (residual averages
// in the figures are means of 20 runs; the arithmetic mean of residuals is
// what the paper plots, but the geometric mean is exposed for the summary
// statistics in EXPERIMENTS.md).
func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
