package engine

import (
	"fmt"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
)

func withEngineWorkers(t *testing.T, workers int) {
	t.Helper()
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	par.SetWorkers(workers)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})
}

// TestBlockCycleBitwiseMatchesCycles is the block-cycle contract: after
// every cycle, each packed column of a BlockCycle iterate equals bitwise
// the iterate of single-RHS Cycles on that column, at any worker count,
// for every method, smoother and operator.
func TestBlockCycleBitwiseMatchesCycles(t *testing.T) {
	a := grid.Laplacian7pt(8)
	s, err := New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	n := a.Rows
	const k, tmax = 5, 8
	cols := make([][]float64, k)
	b := make([]float64, n*k)
	for c := range cols {
		cols[c] = grid.RandomRHS(n, int64(100+c))
		for i, v := range cols[c] {
			b[i*k+c] = v
		}
	}
	w := s.AcquireWorkspace()
	defer s.ReleaseWorkspace(w)
	for _, m := range []Method{Mult, Multadd} {
		for _, workers := range []int{1, 2, 8} {
			withEngineWorkers(t, workers)
			bw := s.AcquireBlockWorkspace(k)
			x := make([]float64, n*k)
			ref := make([][]float64, k)
			for c := range ref {
				ref[c] = make([]float64, n)
			}
			for it := 1; it <= tmax; it++ {
				s.BlockCycle(m, x, b, k, bw)
				for c := 0; c < k; c++ {
					s.Cycle(m, ref[c], cols[c], w)
					for i, v := range ref[c] {
						if x[i*k+c] != v {
							t.Fatalf("%v workers=%d cycle %d col %d: x[%d] = %v, want %v", m, workers, it, c, i, x[i*k+c], v)
						}
					}
				}
			}
			s.ReleaseBlockWorkspace(bw)
		}
	}

	// Beyond the CSR Jacobi default: a block smoother, AFACx, and a
	// matrix-free fine level with class-table P̄₀ and float32 coarse levels.
	hy, err := New(grid.Laplacian7pt(6), amg.DefaultOptions(), smoother.Config{Kind: smoother.HybridJGS, Omega: 0.9, Blocks: 2})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	mf, err := NewOperator(op.NewStencil7(8), opt, smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, ok := mf.SItp[0].(*op.GeomInterp); !ok {
		t.Fatalf("matrix-free P̄₀ is %T, want the class table *op.GeomInterp", mf.SItp[0])
	}
	withEngineWorkers(t, 2)
	for name, e := range map[string]*Engine{"hybrid-jgs": hy, "stencil7-f32": mf} {
		for _, m := range []Method{Mult, Multadd, AFACx} {
			checkBlockColumns(t, fmt.Sprintf("%s/%v", name, m), e, m, 3, 4)
		}
	}
}

// checkBlockColumns runs tmax BlockCycles of m on k packed columns and,
// after each, the single-RHS Cycle on every column: the columns must
// agree bitwise, and the observer must count k relaxations and k
// corrections per level and cycle, as k Cycles do.
func checkBlockColumns(t *testing.T, name string, s *Engine, m Method, k, tmax int) {
	t.Helper()
	n := s.LevelSize(0)
	b := make([]float64, n*k)
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = grid.RandomRHS(n, int64(200+c))
		for i, v := range cols[c] {
			b[i*k+c] = v
		}
	}
	x, ref := make([]float64, n*k), make([][]float64, k)
	for c := range ref {
		ref[c] = make([]float64, n)
	}
	w, bw := s.AcquireWorkspace(), s.AcquireBlockWorkspace(k)
	defer s.ReleaseWorkspace(w)
	defer s.ReleaseBlockWorkspace(bw)
	blockObs, cycleObs := obs.New(s.NumLevels()), obs.New(s.NumLevels())
	defer s.SetObserver(nil)
	for it := 1; it <= tmax; it++ {
		s.SetObserver(blockObs)
		s.BlockCycle(m, x, b, k, bw)
		s.SetObserver(cycleObs)
		for c := 0; c < k; c++ {
			s.Cycle(m, ref[c], cols[c], w)
			for i, v := range ref[c] {
				if x[i*k+c] != v {
					t.Fatalf("%s cycle %d col %d: x[%d] = %v, want %v", name, it, c, i, x[i*k+c], v)
				}
			}
		}
	}
	got, want := blockObs.Snapshot(), cycleObs.Snapshot()
	for lev := 0; lev < s.NumLevels(); lev++ {
		if got.Relaxations[lev] != want.Relaxations[lev] || got.Corrections[lev] != want.Corrections[lev] {
			t.Errorf("%s level %d: block cycles counted %d relaxations and %d corrections, Cycles %d and %d",
				name, lev, got.Relaxations[lev], got.Corrections[lev], want.Relaxations[lev], want.Corrections[lev])
		}
	}
}
