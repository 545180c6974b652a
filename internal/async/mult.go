package async

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// solveMult runs the classical multiplicative V(1,1)-cycle with one team of
// cfg.Threads goroutines and a barrier after every parallel loop — the
// paper's "sync Mult" baseline. Every member runs the engine's own Mult
// body on its team site over one shared workspace. Its many per-level
// synchronization points are exactly what asynchronous additive multigrid
// eliminates, so the harness also counts them (see Result.Corrections,
// which for Mult holds the cycle count on every level).
func solveMult(ctx context.Context, s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	l := s.NumLevels()
	// Async GS smooths every level over one fine-sized overlay.
	var ov *vec.Atomic
	if s.Cfg.Kind == smoother.AsyncGS {
		ov = vec.NewAtomic(s.LevelSize(0))
	}
	tm, err := newTeam(s, cfg.Threads, l-1, func(int) (bool, *vec.Atomic) { return true, ov })
	if err != nil {
		return nil, err
	}
	w := s.NewWorkspace()
	x := make([]float64, s.LevelSize(0))

	start := time.Now()
	// Thread 0 turns a cancelled context into the cycle every thread
	// stops before: the next one. It stores that before this cycle's
	// barriers, which every thread passes before reading it at the top of
	// the next cycle, so all threads stop together; a later store names a
	// later cycle, which no reader mistakes for its own.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(site *teamSite) {
			defer wg.Done()
			for cyc := int64(0); cyc < int64(cfg.MaxCycles) && cyc < stopAt.Load(); cyc++ {
				if site.tid == 0 && stopAt.Load() == math.MaxInt64 && ctx.Err() != nil {
					stopAt.Store(cyc + 1)
				}
				s.MultCycle(site, x, b, w)
				// The residual norm is not computed mid-flight (NaN on the
				// trace).
				if site.tid == 0 {
					s.RecordCycle(cfg.Observer, engine.Mult, false)
					cfg.Observer.CycleDone(math.NaN())
				}
			}
		}(&teamSite{team: &tm, tid: tid})
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("async: solve aborted: %w", err)
	}

	corr := make([]int, l)
	for k := range corr {
		corr[k] = cfg.MaxCycles
	}
	out := &Result{
		X:           x,
		RelRes:      s.RelRes(b, x),
		Corrections: corr,
		AvgCorrects: float64(cfg.MaxCycles),
		Elapsed:     elapsed,
	}
	out.Diverged = vec.Diverged(out.X, out.RelRes)
	return out, nil
}
