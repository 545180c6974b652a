package async

import (
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
)

// TestComputeCorrectionZeroAllocs checks the tentpole's steady-state
// guarantee on the team side: once a gridRun's buffers and sites exist, a
// grid correction allocates nothing. The test uses one thread per grid so
// the team barrier is the size-1 fast path and the whole correction runs
// on the calling goroutine, which makes it measurable with AllocsPerRun.
func TestComputeCorrectionZeroAllocs(t *testing.T) {
	a := grid.Laplacian7pt(10)
	s, err := engine.New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	l := s.NumLevels()
	b := grid.RandomRHS(s.LevelSize(0), 1)
	for _, m := range []engine.Method{engine.Multadd, engine.AFACx} {
		rt := &solverState{
			s: s, cfg: Config{Method: m, Threads: l, MaxCycles: 1},
			n: s.LevelSize(0), b: b,
		}
		rt.grids = make([]*gridRun, l)
		for k := 0; k < l; k++ {
			g, err := newGridRun(rt, k, 1)
			if err != nil {
				t.Fatalf("%v grid %d: %v", m, k, err)
			}
			rt.grids[k] = g
		}
		for k, g := range rt.grids {
			g.computeCorrection(0, g.rk) // warm up (first LU solve)
			allocs := testing.AllocsPerRun(10, func() {
				g.computeCorrection(0, g.rk)
			})
			if allocs != 0 {
				t.Errorf("%v grid %d: %v allocs/run in steady state, want 0", m, k, allocs)
			}
		}
	}
}

// TestDampedCorrectionZeroAllocs enforces the same steady-state
// contract on the damped path: scaling the level-k correction by ω (and
// the controller bookkeeping around it) must not allocate either.
func TestDampedCorrectionZeroAllocs(t *testing.T) {
	a := grid.Laplacian7pt(10)
	s, err := engine.New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	l := s.NumLevels()
	b := grid.RandomRHS(s.LevelSize(0), 1)
	for _, m := range []engine.Method{engine.Multadd, engine.AFACx} {
		rt := &solverState{
			s: s, cfg: Config{Method: m, Threads: l, MaxCycles: 1,
				Damping: DampingPolicy{Mode: DampAuto, Omega: 0.8, Rollback: true}},
			n: s.LevelSize(0), b: b,
		}
		rt.damp = rt.cfg.Damping.resolve(l)
		rt.auto = true
		rt.guard = true
		rt.guardLimit = 1e100
		rt.grids = make([]*gridRun, l)
		for k := 0; k < l; k++ {
			g, err := newGridRun(rt, k, 1)
			if err != nil {
				t.Fatalf("%v grid %d: %v", m, k, err)
			}
			rt.grids[k] = g
		}
		for k, g := range rt.grids {
			g.computeCorrection(0, g.rk) // warm up (first LU solve)
			allocs := testing.AllocsPerRun(10, func() {
				g.checkHealth()
				g.computeCorrection(0, g.rk)
				g.adaptOmega(int64(2 * l))
			})
			if allocs != 0 {
				t.Errorf("%v grid %d: %v allocs/run on damped path, want 0", m, k, allocs)
			}
		}
	}
}
