package sparse

import (
	"math/rand"
	"testing"

	"asyncmg/internal/par"
)

// csrBitwiseEq fails unless got and want agree in shape, structure and
// bit-exact values.
func csrBitwiseEq(t *testing.T, name string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", name, got.NNZ(), want.NNZ())
	}
	for p := range want.Vals {
		if got.ColIdx[p] != want.ColIdx[p] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", name, p, got.ColIdx[p], want.ColIdx[p])
		}
		if got.Vals[p] != want.Vals[p] {
			t.Fatalf("%s: Vals[%d] = %v, want %v (not bitwise-identical)", name, p, got.Vals[p], want.Vals[p])
		}
	}
}

// TestSetupKernelsBitwiseAcrossWorkerCounts is the setup-phase analogue
// of the fused-kernel property: the two-pass GEMM, the fused triple
// product, and the sharded transpose are bitwise-identical to their
// serial forms for any worker count. Serial references are computed with
// a one-worker pool before any swap; the wide/short fixture drives the
// empty-shard paths of the transpose (more workers than rows).
func TestSetupKernelsBitwiseAcrossWorkerCounts(t *testing.T) {
	type fixture struct {
		a, p        *CSR
		ap, rap, aT *CSR // serial references
		pT          *CSR
	}
	par.SetWorkers(1)
	var fixtures []*fixture
	for seed := int64(40); seed < 43; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &fixture{}
		n := 150 + 23*int(seed)
		f.a = randKernelCSR(t, rng, n, n, 9)
		f.p = randKernelCSR(t, rng, n, 29+int(seed), 3)
		f.ap = MatMul(f.a, f.p)
		f.pT = f.p.Transpose()
		f.rap = RAP(f.a, f.p)
		f.aT = f.a.Transpose()
		fixtures = append(fixtures, f)
	}
	// Wide/short fixture: fewer rows than the largest worker count, so
	// some transpose/GEMM shards receive empty ranges.
	{
		rng := rand.New(rand.NewSource(99))
		f := &fixture{}
		f.a = randKernelCSR(t, rng, 5, 400, 60)
		f.p = randKernelCSR(t, rng, 400, 37, 4)
		f.ap = MatMul(f.a, f.p)
		f.pT = f.p.Transpose()
		f.rap = &CSR{} // P is not n×nc of A here; skip RAP for this fixture
		f.aT = f.a.Transpose()
		fixtures = append(fixtures, f)
	}
	par.SetWorkers(0)

	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
			withWorkers(t, workers)
			for fi, f := range fixtures {
				csrBitwiseEq(t, "MatMul", MatMul(f.a, f.p), f.ap)
				csrBitwiseEq(t, "Transpose(A)", f.a.Transpose(), f.aT)
				pT := f.p.Transpose()
				csrBitwiseEq(t, "Transpose(P)", pT, f.pT)
				if fi < 3 { // square fixtures only
					csrBitwiseEq(t, "RAP", RAP(f.a, f.p), f.rap)
					ac, ap := RAPWith(f.a, f.p, pT)
					csrBitwiseEq(t, "RAPWith", ac, f.rap)
					csrBitwiseEq(t, "RAPWith's A·P", ap, f.ap)
				}
			}
		})
	}
}

// TestMatMulSteadyStateAllocations pins the setup allocation contract:
// once the scratch free list is warm, a steady-state MatMul makes no
// fresh marker/accumulator scratch and no other heap allocation but the
// output matrix's own four (CSR struct, RowPtr, ColIdx, Vals), at any
// GOMAXPROCS and across GCs: the list keeps its idle scratch.
func TestMatMulSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randKernelCSR(t, rng, 300, 300, 7)
	b := randKernelCSR(t, rng, 300, 120, 3)

	MatMul(a, b) // warm the scratch and kernel-descriptor free lists
	before := gemmScratches.Made()
	allocs := testing.AllocsPerRun(20, func() { MatMul(a, b) })
	if d := gemmScratches.Made() - before; d != 0 {
		t.Errorf("steady-state MatMul constructed %d fresh GEMM scratches, want 0", d)
	}
	if allocs > 4 {
		t.Errorf("steady-state MatMul allocates %.1f objects/op, want <= 4 (output storage only)", allocs)
	}
}
