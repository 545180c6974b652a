// Package harness reproduces the paper's evaluation: on the four test
// families of internal/problem it runs the measurement protocol of
// Section V (mean of R runs, cycle sweeps, first-crossing
// time-to-tolerance) through solve.Run, and prints the rows and series of
// Table I and Figures 1, 2, 4, 5 and 6.
package harness

import (
	"context"
	"fmt"
	"math"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/solve"
	"asyncmg/internal/vec"
)

// Row is one labelled method of Table I or Figures 4-6: a mode-async plan
// (team-synchronous rows set Async.Sync) that the protocol completes with
// the cycle budget, the threads and the stopping criterion.
type Row struct {
	Label string
	Plan  solve.Plan
}

// row is the Row of method m under the runtime's Sync, Write and Res.
func row(label string, m engine.Method, cfg async.Config) Row {
	return Row{label, solve.Plan{Method: m, Mode: solve.ModeAsync, Async: cfg}}
}

// TableIMethods returns the twelve method variants of Table I, in the
// paper's row order.
func TableIMethods() []Row {
	return []Row{
		row("sync Mult", engine.Mult, async.Config{Sync: true}),
		row("sync Multadd, lock-write", engine.Multadd, async.Config{Sync: true, Write: async.LockWrite}),
		row("sync Multadd, atomic-write", engine.Multadd, async.Config{Sync: true, Write: async.AtomicWrite}),
		row("sync AFACx, lock-write", engine.AFACx, async.Config{Sync: true, Write: async.LockWrite}),
		row("sync AFACx, atomic-write", engine.AFACx, async.Config{Sync: true, Write: async.AtomicWrite}),
		row("AFACx, lock-write", engine.AFACx, async.Config{Write: async.LockWrite, Res: async.LocalRes}),
		row("AFACx, atomic-write", engine.AFACx, async.Config{Write: async.AtomicWrite, Res: async.LocalRes}),
		row("Multadd, lock-write, global-res", engine.Multadd, async.Config{Write: async.LockWrite, Res: async.GlobalRes}),
		row("Multadd, lock-write, local-res", engine.Multadd, async.Config{Write: async.LockWrite, Res: async.LocalRes}),
		row("Multadd, atomic-write, global-res", engine.Multadd, async.Config{Write: async.AtomicWrite, Res: async.GlobalRes}),
		row("Multadd, atomic-write, local-res", engine.Multadd, async.Config{Write: async.AtomicWrite, Res: async.LocalRes}),
		row("r-Multadd, atomic-write, local-res", engine.Multadd, async.Config{Write: async.AtomicWrite, Res: async.ResidualRes}),
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
	// Verdict is Converged when a cycle count reached the tolerance,
	// Stalled (">max") when none did, or a solve's Grew or Diverged (†).
	Verdict vec.Verdict
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
func (p Protocol) TimeToTol(s *engine.Engine, r Row) TTResult {
	// Prescreen at the largest cycle count: if even CycleMax cycles do not
	// reach the tolerance on the first right-hand side, no smaller count
	// will, so report immediately instead of grinding through the whole
	// ascending sweep. (A solve that grew or diverged is † here too.)
	res := p.solve(s, r, 0, async.Criterion2, p.CycleMax)
	switch {
	case res.Verdict >= vec.Grew:
		return TTResult{Verdict: res.Verdict}
	case vec.Judge(nil, res.RelRes, p.Tau*10) == vec.Stalled:
		// Not within an order of magnitude of the tolerance even at
		// the full budget (asynchronous runs are noisy, so borderline
		// cases still take the full sweep below).
		return TTResult{Verdict: vec.Stalled}
	}
	for cycles := p.CycleStep; cycles <= p.CycleMax; cycles += p.CycleStep {
		var sumRes, sumTime, sumCorr float64
		for run := 0; run < p.Runs; run++ {
			res := p.solve(s, r, run, async.Criterion2, cycles)
			if res.Verdict >= vec.Grew {
				return TTResult{Verdict: res.Verdict}
			}
			sumRes += res.RelRes
			sumTime += res.Async.Elapsed.Seconds()
			sumCorr += res.Async.AvgCorrects
		}
		if vec.Judge(nil, sumRes/float64(p.Runs), p.Tau) == vec.Converged {
			return TTResult{
				Seconds:  sumTime / float64(p.Runs),
				Corrects: sumCorr / float64(p.Runs),
				Cycles:   cycles,
			}
		}
	}
	return TTResult{Verdict: vec.Stalled}
}

// MeanRelRes runs the method for a fixed cycle count and returns the mean
// relative residual over p.Runs runs (the quantity plotted in Figures 4
// and 5), or true for the paper's † when a run grew or diverged.
func (p Protocol) MeanRelRes(s *engine.Engine, r Row, cycles int) (float64, bool) {
	var sum float64
	for run := 0; run < p.Runs; run++ {
		res := p.solve(s, r, run, async.Criterion1, cycles)
		if res.Verdict >= vec.Grew {
			return math.Inf(1), true
		}
		sum += res.RelRes
	}
	return sum / float64(p.Runs), false
}

// solve runs one protocol solve: the row's method for cycles cycles under
// the stopping criterion, on the right-hand side of the given run. A solve
// that fails to run is marked †, as Diverged.
func (p Protocol) solve(s *engine.Engine, r Row, run int, crit async.Criterion, cycles int) solve.Outcome {
	plan := r.Plan
	plan.Cycles = cycles
	plan.Async.Criterion, plan.Async.Threads = crit, p.Threads
	out, err := solve.Run(context.Background(), s, &plan, grid.RandomRHS(s.LevelSize(0), p.Seed0+int64(run)), p.Observer)
	if err != nil {
		out.Verdict = vec.Diverged
	}
	return out
}

// FormatTT renders a TTResult the way Table I does: † for a run that
// grew or diverged, ">max" when the cycle budget ran out without
// convergence.
func FormatTT(r TTResult) string {
	switch r.Verdict {
	case vec.Grew, vec.Diverged:
		return fmt.Sprintf("%10s %8s %8s", "†", "†", "†")
	case vec.Stalled:
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
