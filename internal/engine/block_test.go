package engine

import (
	"context"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
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
// for both block methods. A configuration without a block path (block
// smoothers) panics instead of returning wrong columns.
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

	hy, err := New(grid.Laplacian7pt(6), amg.DefaultOptions(), smoother.Config{Kind: smoother.HybridJGS, Omega: 0.9, Blocks: 2})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("BlockCycle with a block smoother did not panic")
		}
	}()
	m := hy.LevelSize(0)
	hy.BlockCycle(Mult, make([]float64, m), make([]float64, m), 1, hy.NewBlockWorkspace(1))
}

// TestSolveCtxCancel checks the ctx plumbing of the synchronous solve
// loop: an expired context stops the solve at a cycle boundary with the
// context's error, and a live one reproduces Solve bit for bit.
func TestSolveCtxCancel(t *testing.T) {
	a := grid.Laplacian7pt(6)
	s, err := New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	b := grid.RandomRHS(a.Rows, 3)
	refX, refH := s.Solve(Mult, b, 6)
	x, hist, err := s.SolveCtx(context.Background(), Mult, b, 6)
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	for i := range refH {
		if hist[i] != refH[i] {
			t.Fatalf("history[%d] = %v, want %v", i, hist[i], refH[i])
		}
	}
	for i := range refX {
		if x[i] != refX[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], refX[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hist, err = s.SolveCtx(ctx, Mult, b, 6)
	if err != context.Canceled {
		t.Fatalf("cancelled SolveCtx error = %v, want context.Canceled", err)
	}
	if len(hist) != 1 {
		t.Fatalf("cancelled SolveCtx ran %d cycles, want 0", len(hist)-1)
	}
}

// TestBlockWorkspacePoolReuse checks the per-k pool recycles workspaces.
func TestBlockWorkspacePoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; pooled reuse does not hold")
	}
	s := allocTestEngine(t)
	w := s.AcquireBlockWorkspace(4)
	if w.k != 4 {
		t.Fatalf("workspace k = %d, want 4", w.k)
	}
	s.ReleaseBlockWorkspace(w)
	w2 := s.AcquireBlockWorkspace(4)
	if w2 != w {
		t.Error("expected the pooled workspace back for the same k")
	}
	w8 := s.AcquireBlockWorkspace(8)
	if w8 == w2 || w8.k != 8 {
		t.Errorf("k=8 workspace should be fresh, got k=%d", w8.k)
	}
}
