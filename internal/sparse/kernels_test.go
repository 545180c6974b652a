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

// forceParallel lowers the dispatch threshold so even test-sized matrices
// take the sharded path, and restores it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := par.Threshold()
	par.SetThreshold(1)
	t.Cleanup(func() { par.SetThreshold(old) })
}

// fusedFixture builds a fine operator and an interpolation-shaped p
// (tall, few entries per row) plus its transpose.
func fusedFixture(t *testing.T, seed int64) (a, p, pT *CSR, b, x []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = randKernelCSR(t, rng, 301, 301, 8)
	p = randKernelCSR(t, rng, 301, 47, 3)
	pT = p.Transpose()
	b = randVec(rng, a.Rows)
	x = randVec(rng, a.Cols)
	return
}

func TestFusedResidualRestrictBitwise(t *testing.T) {
	a, p, pT, b, x := fusedFixture(t, 4)
	want := make([]float64, p.Cols)
	tmp := make([]float64, a.Rows)
	a.Residual(tmp, b, x)
	pT.MatVec(want, tmp)

	// Serial scatter path.
	got := make([]float64, p.Cols)
	FusedResidualRestrict(a, p, nil, got, b, x, tmp)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fused scatter differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Parallel two-phase path.
	forceParallel(t)
	got2 := make([]float64, p.Cols)
	FusedResidualRestrict(a, p, pT, got2, b, x, tmp)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("fused parallel differs at %d: %v vs %v", i, got2[i], want[i])
		}
	}
}

func TestFusedJacobiResidualRestrictBitwise(t *testing.T) {
	a, p, pT, _, r := fusedFixture(t, 6)
	invDiag := make([]float64, a.Rows)
	d := a.Diag()
	for i := range invDiag {
		invDiag[i] = 0.9 / d[i]
	}
	wantE := make([]float64, a.Rows)
	for i := range wantE {
		wantE[i] = invDiag[i] * r[i]
	}
	tmp := make([]float64, a.Rows)
	a.Residual(tmp, r, wantE)
	wantRC := make([]float64, p.Cols)
	pT.MatVec(wantRC, tmp)

	e := make([]float64, a.Rows)
	rc := make([]float64, p.Cols)
	scratch := make([]float64, a.Rows)
	FusedJacobiResidualRestrict(a, p, nil, e, rc, invDiag, r, scratch)
	for i := range wantRC {
		if rc[i] != wantRC[i] {
			t.Fatalf("triple-fused scatter rc differs at %d: %v vs %v", i, rc[i], wantRC[i])
		}
	}
	for i := range wantE {
		if e[i] != wantE[i] {
			t.Fatalf("triple-fused scatter e differs at %d", i)
		}
	}
	forceParallel(t)
	e2 := make([]float64, a.Rows)
	rc2 := make([]float64, p.Cols)
	FusedJacobiResidualRestrict(a, p, pT, e2, rc2, invDiag, r, scratch)
	for i := range wantRC {
		if rc2[i] != wantRC[i] {
			t.Fatalf("triple-fused parallel rc differs at %d", i)
		}
	}
	for i := range wantE {
		if e2[i] != wantE[i] {
			t.Fatalf("triple-fused parallel e differs at %d", i)
		}
	}
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
