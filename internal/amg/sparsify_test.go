package amg

import (
	"math"
	"testing"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

// anisoLaplacian builds the 2-D 5-point anisotropic Laplacian on an n×n
// grid: -1 couplings in x, -eps in y, diagonal 2(1+eps). Symmetric
// positive definite, with a two-magnitude coupling structure so a
// strength threshold between eps and 1 drops exactly the y couplings.
func anisoLaplacian(n int, eps float64) *sparse.CSR {
	c := sparse.NewCOO(n*n, n*n, 5*n*n)
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Add(id(i, j), id(i, j), 2*(1+eps))
			if j > 0 {
				c.Add(id(i, j), id(i, j-1), -1)
			}
			if j < n-1 {
				c.Add(id(i, j), id(i, j+1), -1)
			}
			if i > 0 {
				c.Add(id(i, j), id(i-1, j), -eps)
			}
			if i < n-1 {
				c.Add(id(i, j), id(i+1, j), -eps)
			}
		}
	}
	return c.ToCSR()
}

func rowSums(a *sparse.CSR) []float64 {
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Vals[p]
		}
		out[i] = s
	}
	return out
}

func TestSparsifyStrengthDropsWeakCouplings(t *testing.T) {
	a := anisoLaplacian(8, 0.01)
	s := SparsifyLump(a, 0.5)
	if err := s.Validate(); err != nil {
		t.Fatalf("sparsified matrix invalid: %v", err)
	}
	if s.NNZ() >= a.NNZ() {
		t.Fatalf("no reduction: %d nnz, input %d", s.NNZ(), a.NNZ())
	}
	// Every y coupling (-eps) is weak at theta = 0.5 and must be gone;
	// every x coupling (-1) is the row max and must survive.
	n := 8
	id := func(i, j int) int { return i*n + j }
	if v := sparsetest.At(s, id(3, 3), id(2, 3)); v != 0 {
		t.Fatalf("weak y coupling survived: %v", v)
	}
	if v := sparsetest.At(s, id(3, 3), id(3, 2)); v != -1 {
		t.Fatalf("strong x coupling altered: %v", v)
	}
	// Lumping folds the dropped -eps pair into the diagonal.
	if v := sparsetest.At(s, id(3, 3), id(3, 3)); math.Abs(v-2.0) > 1e-15 {
		t.Fatalf("interior diagonal after lumping = %v, want 2", v)
	}
}

func TestSparsifyLumpPreservesRowSumsAndSymmetry(t *testing.T) {
	a := anisoLaplacian(9, 0.02)
	s := SparsifyLump(a, 0.5)
	want := rowSums(a)
	got := rowSums(s)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-13 {
			t.Fatalf("row %d sum %v, want %v", i, got[i], want[i])
		}
	}
	if !sparsetest.IsSymmetric(s, 0) {
		t.Fatal("lumped sparsified matrix lost symmetry")
	}
	for i, d := range s.Diag() {
		if d <= 0 {
			t.Fatalf("row %d diagonal %v after lumping, want > 0", i, d)
		}
	}
}

// TestSparsifyAbsFallbackRow exercises the non-M-matrix path: a row whose
// off-diagonal entries are all positive uses the |a_ij| measure.
func TestSparsifyAbsFallbackRow(t *testing.T) {
	c := sparse.NewCOO(3, 3, 9)
	c.Add(0, 0, 4)
	c.Add(0, 1, 2)
	c.Add(0, 2, 0.01)
	c.Add(1, 0, 2)
	c.Add(1, 1, 4)
	c.Add(1, 2, 2)
	c.Add(2, 0, 0.01)
	c.Add(2, 1, 2)
	c.Add(2, 2, 4)
	a := c.ToCSR()
	s := SparsifyLump(a, 0.5)
	if v := sparsetest.At(s, 0, 2); v != 0 {
		t.Fatalf("weak positive coupling survived: %v", v)
	}
	if v := sparsetest.At(s, 0, 1); v != 2 {
		t.Fatalf("strong positive coupling altered: %v", v)
	}
	if v := sparsetest.At(s, 0, 0); v != 4.01 {
		t.Fatalf("diagonal after lumping = %v, want 4.01", v)
	}
}

// TestSparsifyKeepsRowsWithoutDiagonal pins the safety rule: a row with
// no stored diagonal cannot absorb lumped mass and is copied verbatim.
func TestSparsifyKeepsRowsWithoutDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2, 4)
	c.Add(0, 1, 1e-9)
	c.Add(1, 0, 1e-9)
	c.Add(1, 1, 5)
	a := c.ToCSR()
	s := SparsifyLump(a, 0.9)
	if v := sparsetest.At(s, 0, 1); v != 1e-9 {
		t.Fatalf("row without diagonal was sparsified: entry %v, want 1e-9", v)
	}
	if v := sparsetest.At(s, 1, 0); v != 1e-9 {
		t.Fatalf("symmetric partner of a diagonal-free row dropped: %v", v)
	}
}

// TestSparsifyThetaZeroClones: at theta 0 no negative coupling is weak,
// so an M-matrix comes back entry for entry.
func TestSparsifyThetaZeroClones(t *testing.T) {
	a := anisoLaplacian(5, 0.1)
	csrEq(t, "theta 0", SparsifyLump(a, 0), a)
}

// TestSparsifyWorkerCountBitwise is the repo-wide sharding contract:
// the sparsified matrix is bitwise-identical at worker counts 1, 2, 8.
func TestSparsifyWorkerCountBitwise(t *testing.T) {
	a := anisoLaplacian(11, 0.015)
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})

	par.SetWorkers(1)
	ref := SparsifyLump(a, 0.5)
	for _, workers := range []int{1, 2, 8} {
		par.SetWorkers(workers)
		csrEq(t, "sparsified", SparsifyLump(a, 0.5), ref)
	}
}
