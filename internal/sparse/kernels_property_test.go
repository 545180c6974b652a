package sparse

import (
	"math/rand"
	"testing"

	"asyncmg/internal/par"
)

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

// TestFusedKernelsBitwiseAcrossWorkerCounts is the property the two
// float64-pair fused scatter kernels promise: each is bitwise-identical to
// the composed serial sequence it replaces, for any worker count. The
// serial references are computed once (before any pool swap) and compared
// against runs with 1, 2, and 8 workers over several random operators.
// (The row kernels themselves are covered for every value/index type by
// op.TestCSRKernelTable.)
func TestFusedKernelsBitwiseAcrossWorkerCounts(t *testing.T) {
	type fixture struct {
		a, p, pT              *CSR
		b, x, invDiag         []float64
		residual              []float64 // serial references
		e, tpost              []float64
		restrict, tripleE, rc []float64
	}
	var fixtures []*fixture
	for seed := int64(10); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &fixture{}
		f.a = randKernelCSR(t, rng, 211+17*int(seed), 211+17*int(seed), 7)
		f.p = randKernelCSR(t, rng, f.a.Rows, 31+int(seed), 3)
		f.pT = f.p.Transpose()
		f.b = randVec(rng, f.a.Rows)
		f.x = randVec(rng, f.a.Cols)
		d := f.a.Diag()
		f.invDiag = make([]float64, f.a.Rows)
		for i := range f.invDiag {
			f.invDiag[i] = 0.9 / d[i]
		}
		// Composed serial references.
		f.residual = make([]float64, f.a.Rows)
		f.a.Residual(f.residual, f.b, f.x)
		f.e = make([]float64, f.a.Rows)
		for i := range f.e {
			f.e[i] = f.invDiag[i] * f.b[i]
		}
		f.tpost = make([]float64, f.a.Rows)
		f.a.Residual(f.tpost, f.b, f.e)
		f.restrict = make([]float64, f.p.Cols)
		f.pT.MatVec(f.restrict, f.residual)
		f.rc = make([]float64, f.p.Cols)
		f.pT.MatVec(f.rc, f.tpost)
		fixtures = append(fixtures, f)
	}

	eq := func(t *testing.T, name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s differs at %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
			withWorkers(t, workers)
			for _, f := range fixtures {
				n, nc := f.a.Rows, f.p.Cols
				rc := make([]float64, nc)
				tmp := make([]float64, n)
				FusedResidualRestrict(f.a, f.p, f.pT, rc, f.b, f.x, tmp)
				eq(t, "FusedResidualRestrict", rc, f.restrict)
				// Serial scatter path must agree too, regardless of pool size.
				rcSerial := make([]float64, nc)
				FusedResidualRestrict(f.a, f.p, nil, rcSerial, f.b, f.x, tmp)
				eq(t, "FusedResidualRestrict(serial)", rcSerial, f.restrict)

				e2 := make([]float64, n)
				rc2 := make([]float64, nc)
				FusedJacobiResidualRestrict(f.a, f.p, f.pT, e2, rc2, f.invDiag, f.b, tmp)
				eq(t, "FusedJacobiResidualRestrict e", e2, f.e)
				eq(t, "FusedJacobiResidualRestrict rc", rc2, f.rc)
			}
		})
	}
}
