package krylov

import (
	"context"
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/sparse"
)

// TestBlockPCGBitwiseMatchesSolo is the block-path contract: every column
// of a k-RHS block PCG is bitwise-identical to a single-RHS PCG on that
// column with the same method preconditioner — same histories, same
// iterates, same iteration counts.
func TestBlockPCGBitwiseMatchesSolo(t *testing.T) {
	s := buildSetup(t, 8)
	n := s.LevelSize(0)
	const k = 3
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = grid.RandomRHS(n, int64(20+c))
	}
	packed := make([]float64, n*k)
	sparse.PackBlock(packed, cols)

	opt := DefaultOptions()
	opt.Tol = 1e-9
	opt.MaxIter = 100

	for _, m := range []engine.Method{engine.Mult, engine.Multadd} {
		blk, err := BlockPCGCtx(context.Background(), s, m, packed, k, opt)
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		for c := 0; c < k; c++ {
			p := NewMGPreconditioner(s, m)
			solo := opt
			solo.M = p
			ref, err := PCG(s.Ops[0], cols[c], solo)
			p.Release()
			if err != nil {
				t.Fatalf("method %v col %d solo: %v", m, c, err)
			}
			bc := blk.Cols[c]
			if bc.Iterations != ref.Iterations || bc.Converged != ref.Converged {
				t.Fatalf("method %v col %d: block %d its (conv %v), solo %d its (conv %v)",
					m, c, bc.Iterations, bc.Converged, ref.Iterations, ref.Converged)
			}
			if len(bc.History) != len(ref.History) {
				t.Fatalf("method %v col %d: history lengths %d vs %d", m, c, len(bc.History), len(ref.History))
			}
			for i := range bc.History {
				if bc.History[i] != ref.History[i] {
					t.Fatalf("method %v col %d: history[%d] = %v, solo %v",
						m, c, i, bc.History[i], ref.History[i])
				}
			}
			got := make([]float64, n)
			sparse.UnpackBlockColumn(got, blk.X, k, c)
			for i := range got {
				if got[i] != ref.X[i] {
					t.Fatalf("method %v col %d: x[%d] = %v, solo %v", m, c, i, got[i], ref.X[i])
				}
			}
		}
	}
}

// TestBlockPCGZeroColumn pins the zero-RHS column behavior: it converges
// immediately with History {0} and a zero iterate, like the solo solver.
func TestBlockPCGZeroColumn(t *testing.T) {
	s := buildSetup(t, 6)
	n := s.LevelSize(0)
	const k = 2
	cols := [][]float64{grid.RandomRHS(n, 30), make([]float64, n)}
	packed := make([]float64, n*k)
	sparse.PackBlock(packed, cols)
	opt := DefaultOptions()
	opt.MaxIter = 100
	blk, err := BlockPCGCtx(context.Background(), s, engine.Mult, packed, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !blk.Cols[0].Converged || !blk.Cols[1].Converged {
		t.Fatalf("columns did not converge: %+v", blk.Cols)
	}
	if len(blk.Cols[1].History) != 1 || blk.Cols[1].History[0] != 0 {
		t.Errorf("zero column history = %v, want [0]", blk.Cols[1].History)
	}
	zero := make([]float64, n)
	sparse.UnpackBlockColumn(zero, blk.X, k, 1)
	for i, v := range zero {
		if v != 0 {
			t.Fatalf("zero column x[%d] = %v", i, v)
		}
	}
}

// TestBlockPCGValidation covers the argument and capability guards.
func TestBlockPCGValidation(t *testing.T) {
	s := buildSetup(t, 5)
	n := s.LevelSize(0)
	opt := DefaultOptions()
	if _, err := BlockPCGCtx(context.Background(), s, engine.Mult, make([]float64, n), 2, opt); err == nil {
		t.Error("bad packed length accepted")
	}
	if _, err := BlockPCGCtx(context.Background(), s, engine.BPX, make([]float64, n*2), 2, opt); err == nil {
		t.Error("method without a block path accepted")
	}
	opt.MaxIter = 0
	if _, err := BlockPCGCtx(context.Background(), s, engine.Mult, make([]float64, n*2), 2, opt); err == nil {
		t.Error("MaxIter 0 accepted")
	}
}

// TestBlockPCGCancellation: a pre-cancelled context returns promptly with
// the context error and partial (empty) histories.
func TestBlockPCGCancellation(t *testing.T) {
	s := buildSetup(t, 6)
	n := s.LevelSize(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := make([]float64, n*2)
	copy(b, grid.RandomRHS(n*2, 31))
	opt := DefaultOptions()
	opt.MaxIter = 100
	res, err := BlockPCGCtx(ctx, s, engine.Mult, b, 2, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Cols) != 2 {
		t.Fatal("cancelled solve must still return the partial result")
	}
}
