package op

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// withWorkers swaps the shared kernel pool to the given size and lowers
// the dispatch threshold so test-sized operators take the sharded path,
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

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func assertBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", name, i, got[i], want[i])
		}
	}
}

type stencilFixture struct {
	name string
	st   Operator
	csr  *sparse.CSR
	n    int
}

func stencilFixtures(t *testing.T, n int) []stencilFixture {
	t.Helper()
	return []stencilFixture{
		{"7pt", NewStencil7(n), grid.Laplacian7pt(n), n},
		{"27pt", NewStencil27(n), grid.Laplacian27pt(n), n},
	}
}

// TestStencilMatchesCSRBitwise is the stencil contract: on the same
// structured Laplacian, every Stencil7/Stencil27 kernel is
// bitwise-identical to the CSR kernel the generator materializes, at
// worker counts 1, 2 and 8 (and serial, below the dispatch threshold).
func TestStencilMatchesCSRBitwise(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(42))
	for _, f := range stencilFixtures(t, n) {
		rows := f.csr.Rows
		if f.st.Rows() != rows {
			t.Fatalf("%s: stencil rows %d, CSR rows %d", f.name, f.st.Rows(), rows)
		}
		if f.st.NNZEquivalent() != f.csr.NNZ() {
			t.Fatalf("%s: NNZEquivalent %d, CSR nnz %d", f.name, f.st.NNZEquivalent(), f.csr.NNZ())
		}
		x := randVec(rng, rows)
		b := randVec(rng, rows)
		scale := randVec(rng, rows)
		invDiag := make([]float64, rows)
		d := f.csr.Diag()
		for i := range invDiag {
			invDiag[i] = 0.9 / d[i]
		}

		// Serial CSR references.
		wantApply := make([]float64, rows)
		f.csr.MatVec(wantApply, x)
		wantRes := make([]float64, rows)
		f.csr.Residual(wantRes, b, x)
		wantE := make([]float64, rows)
		wantT := make([]float64, rows)
		f.csr.JacobiResidualRange(wantE, wantT, invDiag, b, 0, rows)
		wantScaled := make([]float64, rows)
		f.csr.ScaledResidualRange(wantScaled, scale, b, 0, rows)
		wantSmoothed := make([]float64, rows)
		f.csr.SmoothedResidualRange(wantSmoothed, scale, b, 0, rows)

		assertBitwise(t, f.name+"/diag", f.st.Diag(), d)
		assertBitwise(t, f.name+"/rowl1", f.st.RowL1Norms(), f.csr.RowL1Norms())

		check := func(t *testing.T) {
			got := make([]float64, rows)
			f.st.Apply(got, x)
			assertBitwise(t, f.name+"/apply", got, wantApply)
			f.st.Residual(got, b, x)
			assertBitwise(t, f.name+"/residual", got, wantRes)
			e := make([]float64, rows)
			f.st.(JacobiFused).FusedJacobiResidual(e, got, invDiag, b)
			assertBitwise(t, f.name+"/jacobi-e", e, wantE)
			assertBitwise(t, f.name+"/jacobi-t", got, wantT)
			sa := f.st.(SmoothedApplier)
			sa.ScaledResidual(got, scale, b)
			assertBitwise(t, f.name+"/scaledres", got, wantScaled)
			sa.SmoothedResidual(got, scale, b)
			assertBitwise(t, f.name+"/smoothedres", got, wantSmoothed)
		}
		t.Run(f.name+"/serial", check)
		for _, workers := range []int{1, 2, 8} {
			t.Run(f.name+"/workers", func(t *testing.T) {
				withWorkers(t, workers)
				check(t)
			})
		}
	}
}

// TestStencilRangeConsistency pins the Range kernels against their
// full-vector forms on arbitrary subranges (the goroutine-team building
// block).
func TestStencilRangeConsistency(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(7))
	for _, f := range stencilFixtures(t, n) {
		rows := f.st.Rows()
		x := randVec(rng, rows)
		b := randVec(rng, rows)
		want := make([]float64, rows)
		f.csr.Residual(want, b, x)
		got := make([]float64, rows)
		for lo := 0; lo < rows; lo += 61 {
			hi := lo + 61
			if hi > rows {
				hi = rows
			}
			f.st.ResidualRange(got, b, x, lo, hi)
		}
		assertBitwise(t, f.name+"/residual-range", got, want)
		f.csr.MatVec(want, x)
		for lo := 0; lo < rows; lo += 47 {
			hi := lo + 47
			if hi > rows {
				hi = rows
			}
			f.st.ApplyRange(got, x, lo, hi)
		}
		assertBitwise(t, f.name+"/apply-range", got, want)
	}
}

// TestGeomInterpMatchesCSRBitwise pins the matrix-free trilinear
// interpolant against its own materialized CSR (and the CSR transpose)
// across worker counts, for even and odd fine edges.
func TestGeomInterpMatchesCSRBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{6, 7, 10, 11} {
		g := NewGeomInterp(n)
		p := g.CSR()
		pt := p.Transpose()
		if p.NNZ() != g.NNZEquivalent() {
			t.Fatalf("n=%d: NNZEquivalent %d, CSR nnz %d", n, g.NNZEquivalent(), p.NNZ())
		}
		coarse := randVec(rng, g.CoarseRows())
		fine := randVec(rng, g.FineRows())
		wantP := make([]float64, g.FineRows())
		p.MatVec(wantP, coarse)
		wantPT := make([]float64, g.CoarseRows())
		pt.MatVec(wantPT, fine)
		wantAdd := make([]float64, g.FineRows())
		copy(wantAdd, fine)
		p.MatVecAdd(wantAdd, coarse)

		check := func(t *testing.T) {
			got := make([]float64, g.FineRows())
			g.Apply(got, coarse)
			assertBitwise(t, "geom/apply", got, wantP)
			copy(got, fine)
			g.ApplyAdd(got, coarse)
			assertBitwise(t, "geom/applyadd", got, wantAdd)
			gotc := make([]float64, g.CoarseRows())
			g.ApplyT(gotc, fine)
			assertBitwise(t, "geom/applyT", gotc, wantPT)
		}
		t.Run("serial", check)
		for _, workers := range []int{1, 2, 8} {
			t.Run("workers", func(t *testing.T) {
				withWorkers(t, workers)
				check(t)
			})
		}
	}
}

// TestStencilCoarsenMatchesAlgebraicGalerkin pins the matrix-free
// Galerkin product A1 = P0ᵀ(A·P0) bitwise against the same product
// computed from the materialized fine matrix and interpolant, for even
// and odd fine edges at worker counts 1, 2 and 8.
func TestStencilCoarsenMatchesAlgebraicGalerkin(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers)
		for _, n := range []int{3, 4, 5, 8, 9, 16, 17} {
			for _, f := range stencilFixtures(t, n) {
				name := fmt.Sprintf("%s/n=%d/workers=%d", f.name, n, workers)
				itp, a1, err := f.st.(Coarsenable).Coarsen()
				if err != nil {
					t.Fatalf("%s: Coarsen: %v", name, err)
				}
				p := itp.(*GeomInterp).CSR()
				want := sparse.MatMul(p.Transpose(), sparse.MatMul(f.csr, p))
				if a1.Rows != want.Rows || a1.Cols != want.Cols || a1.NNZ() != want.NNZ() {
					t.Fatalf("%s: coarse shape %dx%d nnz %d, want %dx%d nnz %d",
						name, a1.Rows, a1.Cols, a1.NNZ(), want.Rows, want.Cols, want.NNZ())
				}
				for i := 0; i <= a1.Rows; i++ {
					if a1.RowPtr[i] != want.RowPtr[i] {
						t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, a1.RowPtr[i], want.RowPtr[i])
					}
				}
				for q := range a1.Vals {
					if a1.ColIdx[q] != want.ColIdx[q] {
						t.Fatalf("%s: ColIdx[%d] = %d, want %d", name, q, a1.ColIdx[q], want.ColIdx[q])
					}
				}
				assertBitwise(t, name+"/vals", a1.Vals, want.Vals)
			}
		}
	}
}

// TestStencilCoarsenAllocBound is the scaling guard on the geometric
// first coarsening's setup bytes: one Coarsen allocates at most 3× the
// coarse matrix it returns, so no fine-sized intermediate (P₀, P₀ᵀ,
// A·P₀) is ever formed. A count of bytes, not a time.
func TestStencilCoarsenAllocBound(t *testing.T) {
	const n = 32
	for _, workers := range []int{1, 2} {
		withWorkers(t, workers)
		for _, st := range []Coarsenable{NewStencil7(n), NewStencil27(n)} {
			if _, _, err := st.Coarsen(); err != nil { // warm-up
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, a1, err := st.Coarsen()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if limit := 3 * uint64(a1.Bytes()); got > limit {
				t.Errorf("%T n=%d workers=%d: Coarsen allocated %d B, over 3 × A1.Bytes() = %d B",
					st, n, workers, got, limit)
			}
			t.Logf("%T workers=%d: %d B allocated, %.2f × A1.Bytes()", st, workers, got, float64(got)/float64(a1.Bytes()))
		}
	}
}
