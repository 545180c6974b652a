package sparse

import (
	"math/rand"
	"testing"

	"asyncmg/internal/par"
)

// randCSR builds a random sparse matrix with a guaranteed nonzero
// diagonal (rows x cols, about nnzPerRow entries per row).
func randKernelCSR(t testing.TB, rng *rand.Rand, rows, cols, nnzPerRow int) *CSR {
	coo := NewCOO(rows, cols, rows*nnzPerRow)
	for i := 0; i < rows; i++ {
		if i < cols {
			coo.Add(i, i, 4+rng.Float64())
		}
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	a := coo.ToCSR()
	if err := a.Validate(); err != nil {
		t.Fatalf("randKernelCSR: %v", err)
	}
	return a
}

// withWorkers swaps the shared kernel pool to the given size and lowers
// the dispatch threshold so test-sized matrices take the sharded path,
// restoring both on cleanup.
func withWorkers(t *testing.T, workers int) {
	t.Helper()
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	par.SetWorkers(workers)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})
}

// forceParallel lowers the dispatch threshold so even test-sized matrices
// take the sharded path, and restores it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := par.Threshold()
	par.SetThreshold(1)
	t.Cleanup(func() { par.SetThreshold(old) })
}

func TestParKernelsZeroAllocs(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(7))
	a := randKernelCSR(t, rng, 400, 400, 8)
	x := randVec(rng, a.Cols)
	y := make([]float64, a.Rows)
	b := randVec(rng, a.Rows)
	a.MatVecPar(y, x) // warm pools
	a.ResidualPar(y, b, x)
	if allocs := testing.AllocsPerRun(50, func() {
		a.MatVecPar(y, x)
		a.ResidualPar(y, b, x)
	}); allocs != 0 {
		t.Fatalf("parallel kernels allocate %v per call, want 0", allocs)
	}
}
