package sparse

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"asyncmg/internal/par"
)

// anisoLaplacian builds the 2-D 5-point anisotropic Laplacian on an n×n
// grid: -1 couplings in x, -eps in y, diagonal 2(1+eps). Symmetric
// positive definite, with a two-magnitude coupling structure so a
// strength threshold between eps and 1 drops exactly the y couplings.
func anisoLaplacian(n int, eps float64) *CSR {
	c := NewCOO(n*n, n*n, 5*n*n)
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

func rowSums(a *CSR) []float64 {
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
	s := SparsifyStrength(a, 0.5, SparsifyLump)
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
	if v := s.At(id(3, 3), id(2, 3)); v != 0 {
		t.Fatalf("weak y coupling survived: %v", v)
	}
	if v := s.At(id(3, 3), id(3, 2)); v != -1 {
		t.Fatalf("strong x coupling altered: %v", v)
	}
	// Lumping folds the dropped -eps pair into the diagonal.
	if v := s.At(id(3, 3), id(3, 3)); math.Abs(v-2.0) > 1e-15 {
		t.Fatalf("interior diagonal after lumping = %v, want 2", v)
	}
}

func TestSparsifyLumpPreservesRowSumsAndSymmetry(t *testing.T) {
	a := anisoLaplacian(9, 0.02)
	s := SparsifyStrength(a, 0.5, SparsifyLump)
	want := rowSums(a)
	got := rowSums(s)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-13 {
			t.Fatalf("row %d sum %v, want %v", i, got[i], want[i])
		}
	}
	if !s.IsSymmetric(0) {
		t.Fatal("lumped sparsified matrix lost symmetry")
	}
	for i, d := range s.Diag() {
		if d <= 0 {
			t.Fatalf("row %d diagonal %v after lumping, want > 0", i, d)
		}
	}
}

func TestSparsifyRescalePreservesRowSums(t *testing.T) {
	a := anisoLaplacian(7, 0.03)
	s := SparsifyStrength(a, 0.5, SparsifyRescale)
	if s.NNZ() >= a.NNZ() {
		t.Fatalf("no reduction: %d nnz, input %d", s.NNZ(), a.NNZ())
	}
	want := rowSums(a)
	got := rowSums(s)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d sum %v, want %v", i, got[i], want[i])
		}
	}
	// Rescale leaves the diagonal untouched.
	wd, gd := a.Diag(), s.Diag()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("row %d diagonal moved under rescale: %v, want %v", i, gd[i], wd[i])
		}
	}
}

// TestSparsifyAbsFallbackRow exercises the non-M-matrix path: a row whose
// off-diagonal entries are all positive uses the |a_ij| measure.
func TestSparsifyAbsFallbackRow(t *testing.T) {
	c := NewCOO(3, 3, 9)
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
	s := SparsifyStrength(a, 0.5, SparsifyLump)
	if v := s.At(0, 2); v != 0 {
		t.Fatalf("weak positive coupling survived: %v", v)
	}
	if v := s.At(0, 1); v != 2 {
		t.Fatalf("strong positive coupling altered: %v", v)
	}
	if v := s.At(0, 0); v != 4.01 {
		t.Fatalf("diagonal after lumping = %v, want 4.01", v)
	}
}

// TestSparsifyKeepsRowsWithoutDiagonal pins the safety rule: a row with
// no stored diagonal cannot absorb lumped mass and is copied verbatim.
func TestSparsifyKeepsRowsWithoutDiagonal(t *testing.T) {
	c := NewCOO(2, 2, 4)
	c.Add(0, 1, 1e-9)
	c.Add(1, 0, 1e-9)
	c.Add(1, 1, 5)
	a := c.ToCSR()
	s := SparsifyStrength(a, 0.9, SparsifyLump)
	if v := s.At(0, 1); v != 1e-9 {
		t.Fatalf("row without diagonal was sparsified: entry %v, want 1e-9", v)
	}
	if v := s.At(1, 0); v != 1e-9 {
		t.Fatalf("symmetric partner of a diagonal-free row dropped: %v", v)
	}
}

func TestSparsifyThetaZeroClones(t *testing.T) {
	a := anisoLaplacian(5, 0.1)
	s := SparsifyStrength(a, 0, SparsifyLump)
	if s.NNZ() != a.NNZ() {
		t.Fatalf("theta 0 changed nnz: %d, want %d", s.NNZ(), a.NNZ())
	}
	for p := range a.Vals {
		if s.ColIdx[p] != a.ColIdx[p] || s.Vals[p] != a.Vals[p] {
			t.Fatalf("theta 0 altered entry %d", p)
		}
	}
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
	ref := SparsifyStrength(a, 0.5, SparsifyLump)
	for _, workers := range []int{1, 2, 8} {
		par.SetWorkers(workers)
		got := SparsifyStrength(a, 0.5, SparsifyLump)
		if got.NNZ() != ref.NNZ() {
			t.Fatalf("workers=%d: nnz %d, want %d", workers, got.NNZ(), ref.NNZ())
		}
		for i := range ref.RowPtr {
			if got.RowPtr[i] != ref.RowPtr[i] {
				t.Fatalf("workers=%d: RowPtr[%d] = %d, want %d", workers, i, got.RowPtr[i], ref.RowPtr[i])
			}
		}
		for p := range ref.Vals {
			if got.ColIdx[p] != ref.ColIdx[p] || got.Vals[p] != ref.Vals[p] {
				t.Fatalf("workers=%d: entry %d = (%d, %v), want (%d, %v) — not bitwise-identical",
					workers, p, got.ColIdx[p], got.Vals[p], ref.ColIdx[p], ref.Vals[p])
			}
		}
	}
}

// TestSparsifyIntoSteadyStateAllocs enforces the zero-steady-state-alloc
// contract: re-sparsifying an unchanged-size operator through a warm
// destination allocates nothing and constructs no new pooled scratch.
func TestSparsifyIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; the scratch pool cannot stay warm")
	}
	// AllocsPerRun pins the measurement to one P, and sync.Pool keeps its
	// most recent item in a per-P slot no other P can reach: warm the pool
	// on that same P, and keep a collection from emptying it in between.
	// The contract is allocation behaviour with a warm pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := anisoLaplacian(10, 0.02)
	dst := &CSR{}
	SparsifyStrengthInto(dst, a, 0.5, SparsifyLump) // warm dst and the scratch pool
	before := sparsifyScratchNews.Load()
	allocs := testing.AllocsPerRun(20, func() {
		SparsifyStrengthInto(dst, a, 0.5, SparsifyLump)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SparsifyStrengthInto allocates %.0f times per op, want 0", allocs)
	}
	if after := sparsifyScratchNews.Load(); after != before {
		t.Fatalf("scratch pool constructed %d new workspaces in steady state", after-before)
	}
}
