package async

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/partition"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// solveMult runs the classical multiplicative V(1,1)-cycle with one team of
// cfg.Threads goroutines and a global barrier after every parallel loop —
// the paper's "sync Mult" baseline. Its many per-level synchronization
// points are exactly what asynchronous additive multigrid eliminates, so
// the harness also counts them (see Result.Corrections, which for Mult
// holds the cycle count on every level).
func solveMult(ctx context.Context, s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	n := s.LevelSize(0)
	l := s.NumLevels()
	t := cfg.Threads
	bar := NewBarrier(t)

	// Per-level smoothers with one block per thread (built from the
	// engine's cached hierarchy view), plus scratch.
	smos := make([]*smoother.S, l)
	for k := 0; k < l; k++ {
		sm, err := s.NewLevelSmoother(k, t)
		if err != nil {
			return nil, err
		}
		smos[k] = sm
	}
	r := make([][]float64, l)
	e := make([][]float64, l)
	tmp := make([][]float64, l)
	ranges := make([][]partition.Range, l)
	for k := 0; k < l; k++ {
		nk := s.LevelSize(k)
		r[k] = make([]float64, nk)
		e[k] = make([]float64, nk)
		tmp[k] = make([]float64, nk)
		ranges[k] = partition.SplitRows(nk, t)
	}
	x := make([]float64, n)
	// Atomic overlay for asynchronous GS smoothing sweeps inside Mult.
	var ov *vec.Atomic
	if s.Cfg.Kind == smoother.AsyncGS {
		ov = vec.NewAtomic(n)
	}

	postSmooth := func(tid, k int) {
		rg := ranges[k][tid]
		if ov != nil {
			// One asynchronous GS sweep on A e = r in place.
			ov.StoreRange(e[k], rg.Lo, rg.Hi)
			bar.Wait()
			smos[k].SweepBlockAtomic(ov, r[k], tid)
			bar.Wait()
			ov.LoadRange(e[k], rg.Lo, rg.Hi)
			bar.Wait()
			return
		}
		s.Ops[k].ResidualRange(tmp[k], r[k], e[k], rg.Lo, rg.Hi)
		bar.Wait()
		smos[k].SweepBlockFromResidual(e[k], tmp[k], tid)
		bar.Wait()
	}

	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for tid := 0; tid < t; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			a0 := s.Ops[0]
			fr := ranges[0][tid]
			for cyc := 0; cyc < cfg.MaxCycles; cyc++ {
				// Thread 0 folds context cancellation into a stop flag
				// before the cycle's first barrier; every thread reads it
				// after that barrier, so all break on the same cycle.
				if tid == 0 && ctx.Err() != nil {
					stop.Store(true)
				}
				// r0 = b − A x.
				a0.ResidualRange(r[0], b, x, fr.Lo, fr.Hi)
				bar.Wait()
				if stop.Load() {
					return
				}
				// Downward sweep.
				for k := 0; k < l-1; k++ {
					rg := ranges[k][tid]
					teamSmooth(tid, rg, bar, smos[k], ov, e[k], r[k])
					s.Ops[k].ResidualRange(tmp[k], r[k], e[k], rg.Lo, rg.Hi)
					bar.Wait()
					rgc := ranges[k+1][tid]
					s.Itp[k].ApplyTRange(r[k+1], tmp[k], rgc.Lo, rgc.Hi)
					bar.Wait()
				}
				// Coarsest solve by thread 0.
				if tid == 0 {
					s.CoarseSolveScratch(e[l-1], r[l-1], tmp[l-1])
				}
				bar.Wait()
				// Upward sweep.
				for k := l - 2; k >= 0; k-- {
					rg := ranges[k][tid]
					s.Itp[k].ApplyRange(tmp[k], e[k+1], rg.Lo, rg.Hi)
					for i := rg.Lo; i < rg.Hi; i++ {
						e[k][i] += tmp[k][i]
					}
					bar.Wait()
					postSmooth(tid, k)
				}
				for i := fr.Lo; i < fr.Hi; i++ {
					x[i] += e[0][i]
				}
				bar.Wait()
				// V(1,1): two sweeps per level plus the coarse exact solve;
				// synchronous, so every correction has staleness 0. The
				// residual norm is not computed mid-flight (NaN on the
				// trace).
				if o := cfg.Observer; o != nil && tid == 0 {
					for k := 0; k < l-1; k++ {
						o.Relaxed(k, 2)
						o.Corrected(k, 0)
					}
					o.Relaxed(l-1, 1)
					o.Corrected(l-1, 0)
					o.CycleDone(math.NaN())
				}
			}
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("async: solve aborted: %w", err)
	}

	res := make([]float64, n)
	s.Ops[0].Residual(res, b, x)
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	corr := make([]int, l)
	for k := range corr {
		corr[k] = cfg.MaxCycles
	}
	out := &Result{
		X:           append([]float64(nil), x...),
		RelRes:      vec.Norm2(res) / nb,
		Corrections: corr,
		AvgCorrects: float64(cfg.MaxCycles),
		Elapsed:     elapsed,
	}
	out.Diverged = vec.Diverged(out.X, out.RelRes)
	return out, nil
}
