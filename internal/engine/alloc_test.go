package engine

import (
	"runtime"
	"sync"
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

// TestWorkspacePoolReuse checks that the free lists hand back released
// workspaces and that the acquire/release round trip stays
// allocation-free once warm.
func TestWorkspacePoolReuse(t *testing.T) {
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
	if allocs != 0 {
		t.Errorf("acquire/release: %v allocs/run, want 0", allocs)
	}
}

// TestSolveSteadyStateAllocs bounds a full Solve: it may allocate the
// result vectors and one pooled workspace, but per-cycle work must not
// scale allocations with tmax.
func TestSolveSteadyStateAllocs(t *testing.T) {
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

// TestRelResZeroAllocs: with an idle workspace in the free list, RelRes
// forms its residual in the workspace's level-0 slot and allocates
// nothing.
func TestRelResZeroAllocs(t *testing.T) {
	s := allocTestEngine(t)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	x, _ := s.Solve(Multadd, b, 2)
	if a := testing.AllocsPerRun(5, func() { s.RelRes(b, x) }); a != 0 {
		t.Errorf("RelRes with a warm workspace pool: %v allocations, want 0", a)
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
		fresh, err := smoother.NewOperator(s.H.Levels[k].Op, smoother.Config{
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

// TestWorkspacesSurviveGCAcrossGoroutines: idle workspaces wait in the
// engine's own free list, seen from every goroutine and kept across
// collections. At GOMAXPROCS 2 a workspace released on one goroutine is
// the one another acquires after two GCs, for both kinds, and RelRes run
// after two more allocates no object (a MemStats.Mallocs delta, which,
// unlike AllocsPerRun, does not pin the caller to one P).
func TestWorkspacesSurviveGCAcrossGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := allocTestEngine(t)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	x, _ := s.Solve(Multadd, b, 2)
	ws := make(chan *Workspace)
	go func() { w := s.AcquireWorkspace(); s.ReleaseWorkspace(w); ws <- w }()
	released := <-ws
	runtime.GC()
	runtime.GC()
	go func() { ws <- s.AcquireWorkspace() }()
	if got := <-ws; got != released {
		t.Error("a workspace released on another goroutine was not reused after two GCs")
	}
	s.ReleaseWorkspace(released)
	cws := make(chan *CorrWorkspace)
	go func() { w := s.AcquireCorrWorkspace(); s.ReleaseCorrWorkspace(w); cws <- w }()
	releasedCorr := <-cws
	runtime.GC()
	runtime.GC()
	go func() { cws <- s.AcquireCorrWorkspace() }()
	if got := <-cws; got != releasedCorr {
		t.Error("a correction workspace released on another goroutine was not reused after two GCs")
	}
	s.ReleaseCorrWorkspace(releasedCorr)

	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RelRes(b, x)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("RelRes after two GCs allocated %d objects, want 0", d)
	}
}

// TestWorkspaceBytesCountsPeakHolders: WorkspaceBytes is the storage of
// the workspaces the free lists made, as many of each kind as ever had
// holders at once: two cycle workspaces held together and then reused one
// at a time count twice, one correction workspace once.
func TestWorkspaceBytesCountsPeakHolders(t *testing.T) {
	s := allocTestEngine(t)
	if got := s.WorkspaceBytes(); got != 0 {
		t.Fatalf("a new engine holds %d workspace bytes, want 0", got)
	}
	rows := 0
	for k := 0; k < s.NumLevels(); k++ {
		rows += s.LevelSize(k)
	}
	a, b := s.AcquireWorkspace(), s.AcquireWorkspace()
	s.ReleaseWorkspace(a)
	s.ReleaseWorkspace(b)
	for i := 0; i < 3; i++ {
		s.ReleaseWorkspace(s.AcquireWorkspace())
		s.ReleaseCorrWorkspace(s.AcquireCorrWorkspace())
	}
	if got, want := s.WorkspaceBytes(), 8*(2*3*rows+2*rows+s.LevelSize(0)); got != want {
		t.Errorf("WorkspaceBytes = %d, want %d", got, want)
	}
}

// TestWorkspaceFreeListConcurrent: four goroutines acquiring and
// releasing both kinds of workspace at once never make more than four of
// either, so the workspace storage stays bounded by peak concurrency
// (par's TestFreeListConcurrent checks the list itself).
func TestWorkspaceFreeListConcurrent(t *testing.T) {
	s := allocTestEngine(t)
	const holders = 4
	var wg sync.WaitGroup
	for g := 0; g < holders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w, cw := s.AcquireWorkspace(), s.AcquireCorrWorkspace()
				s.ReleaseCorrWorkspace(cw)
				s.ReleaseWorkspace(w)
			}
		}()
	}
	wg.Wait()
	rows := 0
	for k := 0; k < s.NumLevels(); k++ {
		rows += s.LevelSize(k)
	}
	if got, most := s.WorkspaceBytes(), 8*holders*(3*rows+2*rows+s.LevelSize(0)); got > most {
		t.Errorf("%d holders left %d workspace bytes, want at most %d", holders, got, most)
	}
}
