package solve

import (
	"context"

	"asyncmg/internal/async"
	"asyncmg/internal/distmem"
	"asyncmg/internal/engine"
	"asyncmg/internal/krylov"
	"asyncmg/internal/obs"
	"asyncmg/internal/vec"
)

// Outcome is what one solve produced.
type Outcome struct {
	// X is the final iterate.
	X []float64
	// History is the relative residual per cycle (sync cycling) or per
	// iteration (Krylov); empty for async and dist runs, which compute no
	// norm mid-flight.
	History []float64
	RelRes  float64
	// Cycles is the number of cycles run: len(History)-1 for sync
	// cycling, the plan's t_max for async and dist, 0 for Krylov.
	Cycles int
	// Iterations and Converged report a Krylov solve.
	Iterations int
	Converged  bool
	Diverged   bool
	// RolledBack marks an async solve whose iterate the rollback guard
	// discarded.
	RolledBack bool
	// Async is the asynchronous runtime's full report (per-grid
	// corrections, final damping factors); nil for the other modes.
	Async *async.Result
}

// MinOmega is the smallest final per-grid damping factor of an async
// solve; 1 when damping never moved or the solve was not async.
func (o *Outcome) MinOmega() float64 {
	w := 1.0
	if o.Async != nil {
		for _, v := range o.Async.FinalOmega {
			w = min(w, v)
		}
	}
	return w
}

// Run solves e x = b as plan says: synchronous cycling, PCG or FGMRES
// preconditioned by one cycle, the asynchronous runtime, or the
// distributed-memory simulation. o receives the Krylov, async and dist
// metrics; the engine reports to the observer its owner set on it. The
// engine is only read, so concurrent Runs may share it.
func Run(ctx context.Context, e *engine.Engine, plan *Plan, b []float64, o *obs.Observer) (Outcome, error) {
	var out Outcome
	switch {
	case plan.Mode == ModeAsync:
		cfg := plan.Async
		cfg.Method, cfg.MaxCycles, cfg.Observer = plan.Method, plan.Cycles, o
		res, err := async.Solve(ctx, e, b, cfg)
		if err != nil {
			return out, err
		}
		out = Outcome{X: res.X, RelRes: res.RelRes, Cycles: plan.Cycles,
			Diverged: res.Diverged, RolledBack: res.RolledBack, Async: res}
	case plan.Mode == ModeDist:
		res, err := distmem.Solve(ctx, e, b, distmem.Config{
			Method:         plan.Method,
			MaxCorrections: plan.Cycles,
			Observer:       o,
		})
		if err != nil {
			return out, err
		}
		out = Outcome{X: res.X, RelRes: res.RelRes, Cycles: plan.Cycles, Diverged: res.Diverged}
	case plan.Solver != SolverCycle:
		opt := krylov.DefaultOptions()
		opt.Tol, opt.MaxIter, opt.Restart = plan.Tol, plan.MaxIter, plan.Restart
		opt.Observer = o
		p := krylov.NewMGPreconditioner(e, plan.Method)
		defer p.Release()
		opt.M = p
		var res krylov.Result
		var err error
		if plan.Solver == SolverFGMRES {
			res, err = krylov.FGMRESCtx(ctx, e.Ops[0], b, opt)
		} else {
			res, err = krylov.PCGCtx(ctx, e.Ops[0], b, opt)
		}
		if err != nil {
			return out, err
		}
		out = Outcome{X: res.X, History: res.History, Iterations: res.Iterations, Converged: res.Converged}
	default:
		x, hist, err := e.SolveCtx(ctx, plan.Method, b, plan.Cycles)
		if err != nil {
			return out, err
		}
		out = Outcome{X: x, History: hist, Cycles: len(hist) - 1}
	}
	if plan.Mode == ModeSync {
		if n := len(out.History); n > 0 {
			out.RelRes = out.History[n-1]
		}
		out.Diverged = vec.Diverged(out.X, out.RelRes)
	}
	return out, nil
}
