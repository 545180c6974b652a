package engine

import (
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/vec"
)

// TestCycleZeroAllocsWithObserver is the observability acceptance bar:
// attaching a metrics observer must not reintroduce allocations on the
// cycle hot path — every instrument write is an atomic add into
// preallocated cells.
func TestCycleZeroAllocsWithObserver(t *testing.T) {
	s := allocTestEngine(t)
	s.SetObserver(obs.New(s.NumLevels()))
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 1)
	x := make([]float64, n)
	w := s.NewWorkspace()
	for _, m := range []Method{Mult, Multadd, AFACx, BPX} {
		vec.Zero(x)
		s.Cycle(m, x, b, w) // warm up
		allocs := testing.AllocsPerRun(10, func() {
			s.Cycle(m, x, b, w)
		})
		if allocs != 0 {
			t.Errorf("%v cycle with observer: %v allocs/run in steady state, want 0", m, allocs)
		}
	}
	// The instruments must actually have recorded something.
	snap := s.Observer().Snapshot()
	var total int64
	for _, v := range snap.Relaxations {
		total += v
	}
	if total == 0 {
		t.Error("observer recorded no relaxations across instrumented cycles")
	}
}

// TestWorkspaceReuseAfterReleaseBitwise checks the pooled-workspace
// contract per method: a cycle run in a workspace that has been released,
// dirtied, and reacquired produces bitwise the same iterate as a cycle in
// a fresh workspace (cycles fully overwrite everything they read).
func TestWorkspaceReuseAfterReleaseBitwise(t *testing.T) {
	s := allocTestEngine(t)
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 4)
	cases := []struct {
		name string
		m    Method
	}{
		{"mult", Mult},
		{"multadd", Multadd},
		{"afacx", AFACx},
		{"bpx", BPX},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]float64, n)
			s.Cycle(tc.m, want, b, s.NewWorkspace())

			w := s.AcquireWorkspace()
			// Dirty every scratch vector, release, reacquire: the pool must
			// hand the dirty workspace back and the cycle must not care.
			for k := range w.r {
				vec.Fill(w.r[k], 1e300)
				vec.Fill(w.e[k], -1e300)
				vec.Fill(w.tmp[k], 1e-300)
			}
			s.ReleaseWorkspace(w)
			got := make([]float64, n)
			w2 := s.AcquireWorkspace()
			s.Cycle(tc.m, got, b, w2)
			s.ReleaseWorkspace(w2)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v cycle in reused dirty workspace differs at %d: %v vs %v",
						tc.m, i, got[i], want[i])
				}
			}
		})
	}
}

// TestCycleEntryPointsRecordCounts pins what every cycle entry point
// reports to the observer per cycle: exactly one correction per grid at
// staleness 0 (a synchronous cycle corrects every grid once from a fresh
// residual), and the documented relaxation sweep counts — the coarsest
// grid's exact solve counts as one.
func TestCycleEntryPointsRecordCounts(t *testing.T) {
	s := allocTestEngine(t)
	l := s.NumLevels()
	if l < 3 {
		t.Fatalf("want >= 3 levels to tell the grids apart, got %d", l)
	}
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 2)
	// uniform is the sweep count of a cycle that relaxes every fine grid
	// the same number of times.
	uniform := func(sweeps int64) func(k int) int64 {
		return func(int) int64 { return sweeps }
	}
	// AFACx V(s1/s2,0) sweeps each grid s1 times for its own correction and
	// s2 times as the next-finer grid's helper.
	afacx := func(s1, s2 int64) func(k int) int64 {
		return func(k int) int64 {
			if k == 0 {
				return s1
			}
			return s1 + s2
		}
	}
	type cycleFn func(x []float64, w *Workspace)
	viaCycle := func(m Method) cycleFn { return func(x []float64, w *Workspace) { s.Cycle(m, x, b, w) } }
	for _, tc := range []struct {
		name    string
		run     cycleFn
		relaxed func(k int) int64 // grids k < l-1
		coarse  int64
	}{
		{"Cycle(Mult)", viaCycle(Mult), uniform(2), 1},
		{"Cycle(Multadd)", viaCycle(Multadd), uniform(1), 1},
		{"Cycle(AFACx)", viaCycle(AFACx), afacx(1, 1), 2},
		{"Cycle(BPX)", viaCycle(BPX), uniform(1), 1},
		{"PreconditionCycle(Multadd)", func(x []float64, w *Workspace) { s.PreconditionCycle(Multadd, x, b, w) }, uniform(1), 1},
		{"MultCycle", func(x []float64, w *Workspace) { s.MultCycle(x, b, w) }, uniform(2), 1},
		{"MultCycleSweeps(2,3)", func(x []float64, w *Workspace) { s.MultCycleSweeps(x, b, w, 2, 3) }, uniform(5), 1},
		{"MultaddCycle", func(x []float64, w *Workspace) { s.MultaddCycle(x, b, w) }, uniform(1), 1},
		{"MultaddCycleSymmetrized", func(x []float64, w *Workspace) { s.MultaddCycleSymmetrized(x, b, w) }, uniform(2), 1},
		{"BPXCycle", func(x []float64, w *Workspace) { s.BPXCycle(x, b, w) }, uniform(1), 1},
		{"AFACxCycle", func(x []float64, w *Workspace) { s.AFACxCycle(x, b, w) }, afacx(1, 1), 2},
		{"AFACxCycleSweeps(2,3)", func(x []float64, w *Workspace) { s.AFACxCycleSweeps(x, b, w, 2, 3) }, afacx(2, 3), 4},
		{"Solve(Mult)", func([]float64, *Workspace) { s.Solve(Mult, b, 1) }, uniform(2), 1},
		{"SolveDamped(Multadd)", func([]float64, *Workspace) { s.SolveDamped(Multadd, b, 1, 0.8) }, uniform(1), 1},
		{"SolveDamped(AFACx)", func([]float64, *Workspace) { s.SolveDamped(AFACx, b, 1, 0.8) }, afacx(1, 1), 2},
	} {
		o := obs.New(l)
		s.SetObserver(o)
		tc.run(make([]float64, n), s.NewWorkspace())
		snap := o.Snapshot()
		if snap.Staleness.Count != int64(l) || snap.Staleness.Sum != 0 {
			t.Errorf("%s: staleness recorded %d samples summing to %d, want %d at 0", tc.name, snap.Staleness.Count, snap.Staleness.Sum, l)
		}
		for k := 0; k < l; k++ {
			want := tc.coarse
			if k < l-1 {
				want = tc.relaxed(k)
			}
			if got := snap.Corrections[k]; got != 1 {
				t.Errorf("%s: grid %d recorded %d corrections, want 1", tc.name, k, got)
			}
			if got := snap.Relaxations[k]; got != want {
				t.Errorf("%s: grid %d recorded %d relaxation sweeps, want %d", tc.name, k, got, want)
			}
		}
	}
}
