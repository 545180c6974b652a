package engine

import (
	"runtime/debug"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

func allocTestEngine(t testing.TB) *Engine {
	t.Helper()
	a := grid.Laplacian7pt(10)
	s, err := New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if s.NumLevels() < 2 {
		t.Fatalf("want a multilevel hierarchy, got %d levels", s.NumLevels())
	}
	return s
}

// TestCycleZeroAllocs is the tentpole's steady-state guarantee: once a
// workspace exists, a V-cycle of any method performs no allocations, on
// the float64 hierarchy and on the float32-coarse one alike.
func TestCycleZeroAllocs(t *testing.T) {
	for _, prec := range []op.Precision{op.Float64, op.CoarseFloat32} {
		opt := amg.DefaultOptions()
		opt.CoarsePrecision = prec
		s, err := New(grid.Laplacian7pt(10), opt, smoother.DefaultConfig())
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		n := s.LevelSize(0)
		b := grid.RandomRHS(n, 1)
		x := make([]float64, n)
		w := s.NewWorkspace()
		for _, m := range []Method{Mult, Multadd, AFACx, BPX} {
			vec.Zero(x)
			s.Cycle(m, x, b, w) // warm up (first LU solve, pools, etc.)
			allocs := testing.AllocsPerRun(10, func() {
				s.Cycle(m, x, b, w)
			})
			if allocs != 0 {
				t.Errorf("%v cycle, coarse precision %v: %v allocs/run in steady state, want 0", m, prec, allocs)
			}
		}
	}
}

// TestGridCorrectionZeroAllocs checks the serial per-grid correction (the
// body shared with the async teams and the model) at every level.
func TestGridCorrectionZeroAllocs(t *testing.T) {
	s := allocTestEngine(t)
	n := s.LevelSize(0)
	r := grid.RandomRHS(n, 2)
	out := make([]float64, n)
	w := s.NewCorrWorkspace()
	for _, m := range []Method{Multadd, AFACx} {
		for k := 0; k < s.NumLevels(); k++ {
			s.GridCorrection(m, k, out, r, 1, w)
			allocs := testing.AllocsPerRun(10, func() {
				s.GridCorrection(m, k, out, r, 1, w)
			})
			if allocs != 0 {
				t.Errorf("%v grid %d correction: %v allocs/run in steady state, want 0", m, k, allocs)
			}
		}
	}
}

// TestWorkspacePoolReuse checks that the pools hand back released
// workspaces and that the acquire/release round trip stays allocation-free
// once warm (modulo the rare GC-emptied pool, hence the small slack).
func TestWorkspacePoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; reuse and alloc bounds do not hold")
	}
	s := allocTestEngine(t)
	w := s.AcquireWorkspace()
	s.ReleaseWorkspace(w)
	if got := s.AcquireWorkspace(); got != w {
		t.Errorf("cycle workspace pool did not reuse the released workspace")
	} else {
		s.ReleaseWorkspace(got)
	}
	cw := s.AcquireCorrWorkspace()
	s.ReleaseCorrWorkspace(cw)
	if got := s.AcquireCorrWorkspace(); got != cw {
		t.Errorf("correction workspace pool did not reuse the released workspace")
	} else {
		s.ReleaseCorrWorkspace(got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws := s.AcquireWorkspace()
		s.ReleaseWorkspace(ws)
	})
	if allocs > 0.5 {
		t.Errorf("acquire/release: %v allocs/run, want ~0", allocs)
	}
}

// TestSolveSteadyStateAllocs bounds a full Solve: it may allocate the
// result vectors and one pooled workspace, but per-cycle work must not
// scale allocations with tmax.
func TestSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; per-solve alloc counts do not hold")
	}
	// A GC landing inside AllocsPerRun empties the workspace pool and makes
	// the solve re-allocate it mid-measurement (the longer tmax=16 run is
	// the more likely victim). Disable GC for the duration; the contract
	// under test is per-cycle allocation behaviour, not pool survival
	// across collections.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := allocTestEngine(t)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	measure := func(tmax int) float64 {
		s.Solve(Multadd, b, tmax) // warm the pool
		return testing.AllocsPerRun(5, func() {
			s.Solve(Multadd, b, tmax)
		})
	}
	short, long := measure(2), measure(16)
	// x, hist, and header allocations are tmax-independent; allow slack of
	// a couple of allocations for slice-header noise.
	if long > short+2 {
		t.Errorf("Solve allocations grow with cycle count: tmax=2 → %v, tmax=16 → %v", short, long)
	}
}

// TestNewLevelSmootherMatchesFresh checks that level smoothers built
// through the engine match a smoother built afresh on the level's matrix
// exactly.
func TestNewLevelSmootherMatchesFresh(t *testing.T) {
	s := allocTestEngine(t)
	for k := 0; k < s.NumLevels(); k++ {
		sm, err := s.NewLevelSmoother(k, 2)
		if err != nil {
			t.Fatalf("level %d smoother: %v", k, err)
		}
		fresh, err := smoother.New(op.AsCSR(s.H.Levels[k].Op), smoother.Config{
			Kind: s.Cfg.Kind, Omega: s.Cfg.Omega, Blocks: 2,
		})
		if err != nil {
			t.Fatalf("level %d fresh smoother: %v", k, err)
		}
		got, want := sm.InvDiag(), fresh.InvDiag()
		if len(got) != len(want) {
			t.Fatalf("level %d: invDiag length %d != %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("level %d: invDiag[%d] = %v != %v", k, i, got[i], want[i])
			}
		}
	}
}
