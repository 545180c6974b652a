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
	"asyncmg/internal/vec"
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
	st   *Stencil
	csr  *sparse.CSR
	n    int
}

func stencilFixtures(t *testing.T, n int) []stencilFixture {
	t.Helper()
	random := randomStencil(n)
	return []stencilFixture{
		{"7pt", NewStencil7(n), grid.Laplacian7pt(n), n},
		{"27pt", NewStencil27(n), grid.Laplacian27pt(n), n},
		{"random", random, random.CSR(), n},
	}
}

// randomStencil is a 27-point stencil with random box coefficients, the
// same on every row and clipped at the boundary like the Laplacians.
// Unlike theirs (and their Galerkin levels', which are dyadic), its
// entries are not exact in float32, so its float32 view differs from the
// float64 one.
func randomStencil(n int) *Stencil {
	rng := rand.New(rand.NewSource(int64(n)))
	var coef [27]float64
	for q := range coef {
		coef[q] = rng.Float64() - 0.5
	}
	in := func(c int) bool { return c >= 0 && c < n }
	return newStencil(n, func(p [3]int, row []stencilEntry) []stencilEntry {
		for q, v := range coef {
			di, dj, dk := q/9-1, q/3%3-1, q%3-1
			if in(p[0]+di) && in(p[1]+dj) && in(p[2]+dk) {
				row = append(row, stencilEntry{d: [3]int8{int8(di), int8(dj), int8(dk)}, v: v})
			}
		}
		return row
	})
}

// stencilKernels are the Stencil kernels the engine calls, each returning
// its output (the fused Jacobi kernel's e and t concatenated). The range
// forms run over two uneven pieces, so a piece starts mid-line.
var stencilKernels = []struct {
	name string
	run  func(a Operator, in kernelInputs) []float64
}{
	{"apply", func(a Operator, in kernelInputs) []float64 {
		y := make([]float64, a.Rows())
		a.Apply(y, in.x)
		return y
	}},
	{"apply-range", func(a Operator, in kernelInputs) []float64 {
		y := make([]float64, a.Rows())
		a.ApplyRange(y, in.x, 0, a.Rows()/3)
		a.ApplyRange(y, in.x, a.Rows()/3, a.Rows())
		return y
	}},
	{"residual", func(a Operator, in kernelInputs) []float64 {
		r := make([]float64, a.Rows())
		a.Residual(r, in.b, in.x)
		return r
	}},
	{"residual-range", func(a Operator, in kernelInputs) []float64 {
		r := make([]float64, a.Rows())
		a.ResidualRange(r, in.b, in.x, 0, a.Rows()/3)
		a.ResidualRange(r, in.b, in.x, a.Rows()/3, a.Rows())
		return r
	}},
	{"atomic-residual", func(a Operator, in kernelInputs) []float64 {
		rows := a.Rows()
		x, dst := vec.NewAtomic(rows), vec.NewAtomic(rows)
		for i, v := range in.x {
			x.Store(i, v)
		}
		ar := a.(AtomicResidualer)
		ar.ResidualAtomicRange(dst, in.b, x, 0, rows/3)
		ar.ResidualAtomicRange(dst, in.b, x, rows/3, rows)
		r := make([]float64, rows)
		for i := range r {
			r[i] = dst.Load(i)
		}
		return r
	}},
	{"diag", func(a Operator, _ kernelInputs) []float64 { return a.Diag() }},
	{"row-l1", func(a Operator, _ kernelInputs) []float64 { return a.RowL1Norms() }},
}

// stencilTwin is one Stencil level beside the CSR operator it must equal
// bitwise, with the kernels' outputs on the twin.
type stencilTwin struct {
	name string
	st   *Stencil
	csr  Operator
	in   kernelInputs
	want [][]float64
}

// stencilTwins builds, for one Laplacian family and every grid edge of the
// coarsening test, the fine stencil and its Galerkin coarse level beside
// their CSR twins — the generator's matrix and the materialized A₁ — in
// float64 and float32 (the rounded table beside NewCSR32).
func stencilTwins(t *testing.T, family string, rng *rand.Rand) []stencilTwin {
	t.Helper()
	var twins []stencilTwin
	for _, n := range coarsenSizes {
		for _, f := range stencilFixtures(t, n) {
			if f.name != family {
				continue
			}
			_, coarse, err := f.st.Coarsen()
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range []struct {
				name string
				st   *Stencil
				m    *sparse.CSR
			}{{"fine", f.st, f.csr}, {"coarse", coarse, coarse.CSR()}} {
				for _, prec := range []struct {
					name string
					st   *Stencil
					csr  Operator
				}{{"f64", lv.st, FromCSR(lv.m)}, {"f32", lv.st.RoundFloat32(), NewCSR32(lv.m)}} {
					tw := stencilTwin{
						name: fmt.Sprintf("n=%d/%s/%s", n, lv.name, prec.name),
						st:   prec.st, csr: prec.csr,
						in: newKernelInputs(rng, lv.m.Rows, lv.m.Rows),
					}
					if tw.st.NNZEquivalent() != lv.m.NNZ() {
						t.Fatalf("%s: NNZEquivalent %d, CSR nnz %d", tw.name, tw.st.NNZEquivalent(), lv.m.NNZ())
					}
					if b := tw.st.Bytes(); b <= 0 || b > 27*27*entryBytes {
						t.Fatalf("%s: table holds %d B, want (0, 27 rows of 27 entries]", tw.name, b)
					}
					for _, k := range stencilKernels {
						tw.want = append(tw.want, k.run(tw.csr, tw.in))
					}
					twins = append(twins, tw)
				}
			}
		}
	}
	return twins
}

// TestStencilMatchesCSRBitwise is the stencil contract: for both
// Laplacians and a random 27-point stencil at every grid edge of the
// coarsening test, on the fine level
// and on the Galerkin coarse level, in float64 and float32, every Stencil
// kernel is bitwise-identical to the CSR kernel on the materialized matrix
// (the generator's, A₁, and their NewCSR32 stores), at worker counts 1, 2
// and 8 (and serial, below the dispatch threshold).
func TestStencilMatchesCSRBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, family := range []string{"7pt", "27pt", "random"} {
		twins := stencilTwins(t, family, rng)
		check := func(t *testing.T) {
			for _, tw := range twins {
				for q, k := range stencilKernels {
					assertBitwise(t, tw.name+"/"+k.name, k.run(tw.st, tw.in), tw.want[q])
				}
			}
		}
		t.Run(family+"/serial", check)
		for _, workers := range []int{1, 2, 8} {
			t.Run(family+"/workers", func(t *testing.T) {
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
		p.ApplyAddRange(wantAdd, coarse, 0, p.Rows)

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

// coarsenSizes are the fine grid edges the coarsening and kernel tests
// cover: even and odd, with coarse edges 1 (lo and hi at once), 2 (no
// interior class) and up.
var coarsenSizes = []int{3, 4, 5, 8, 9, 16, 17}

// galerkinOracle forms A₁ whole: the Galerkin row body run on every coarse
// row instead of once per class, emitted as CSR.
func galerkinOracle(fine *Stencil, nc int) *sparse.CSR {
	k := &galerkin{fine: fine, taps: axisTaps(fine.n, nc)}
	rows := nc * nc * nc
	a1 := &sparse.CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	var row []stencilEntry
	for r := 0; r < rows; r++ {
		row = k.row([3]int{r / (nc * nc), r / nc % nc, r % nc}, row[:0])
		for _, e := range row {
			a1.ColIdx = append(a1.ColIdx, r+(int(e.d[0])*nc+int(e.d[1]))*nc+int(e.d[2]))
			a1.Vals = append(a1.Vals, e.v)
		}
		a1.RowPtr[r+1] = len(a1.Vals)
	}
	return a1
}

// assertSameCSR fails unless got and want have the same shape, pattern and
// bitwise values.
func assertSameCSR(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape %dx%d nnz %d, want %dx%d nnz %d",
			name, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for q := range got.Vals {
		if got.ColIdx[q] != want.ColIdx[q] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", name, q, got.ColIdx[q], want.ColIdx[q])
		}
	}
	assertBitwise(t, name+"/vals", got.Vals, want.Vals)
}

// TestStencilCoarsenMatchesAlgebraicGalerkin pins the class-row Galerkin
// coarsening: the coarse Stencil, materialized, is bitwise equal to the
// product A1 = P0ᵀ(A·P0) of the materialized fine matrix and interpolant
// and to the Galerkin row body run on every coarse row, for even and odd
// fine edges at worker counts 1, 2 and 8. The fine stencils materialize to
// the generators' matrices. One step further down, where the coarse edge
// allows it (n ≥ 3), Coarsen of the coarse class stencil is pinned the
// same way against A1 and P1, and is again a table of at most 27 class
// rows: the repeated coarsening of BuildOperatorWithStats.
func TestStencilCoarsenMatchesAlgebraicGalerkin(t *testing.T) {
	sizes := append(append([]int(nil), coarsenSizes...), 34)
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers)
		for _, n := range sizes {
			for _, f := range stencilFixtures(t, n) {
				name := fmt.Sprintf("%s/n=%d/workers=%d", f.name, n, workers)
				assertSameCSR(t, name+"/fine", f.st.CSR(), f.csr)
				itp, coarse, err := f.st.Coarsen()
				if err != nil {
					t.Fatalf("%s: Coarsen: %v", name, err)
				}
				a1 := coarse.CSR()
				p := itp.CSR()
				assertSameCSR(t, name+"/matmul", a1, sparse.MatMul(p.Transpose(), sparse.MatMul(f.csr, p)))
				assertSameCSR(t, name+"/every-row", a1, galerkinOracle(f.st, itp.nc))
				if coarse.n < 3 {
					continue
				}
				itp1, coarse2, err := coarse.Coarsen()
				if err != nil {
					t.Fatalf("%s: second Coarsen: %v", name, err)
				}
				if b := coarse2.Bytes(); b <= 0 || b > 27*27*entryBytes {
					t.Fatalf("%s: A2's table holds %d B, want (0, 27 rows of 27 entries]", name, b)
				}
				a2 := coarse2.CSR()
				p1 := itp1.CSR()
				assertSameCSR(t, name+"/A2/matmul", a2, sparse.MatMul(p1.Transpose(), sparse.MatMul(a1, p1)))
				assertSameCSR(t, name+"/A2/every-row", a2, galerkinOracle(coarse, itp1.nc))
			}
		}
	}
}

// TestStencilCoarsenAllocBound is the scaling guard on the geometric
// first coarsening's setup bytes: one Coarsen plus the materialization of
// A₁ allocates at most 3× the coarse matrix, so no fine-sized intermediate
// (P₀, P₀ᵀ, A·P₀) is ever formed. A count of bytes, not a time.
func TestStencilCoarsenAllocBound(t *testing.T) {
	const n = 32
	for _, workers := range []int{1, 2} {
		withWorkers(t, workers)
		for _, f := range stencilFixtures(t, n) {
			build := func() *sparse.CSR {
				_, coarse, err := f.st.Coarsen()
				if err != nil {
					t.Fatal(err)
				}
				return coarse.CSR()
			}
			build() // warm-up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a1 := build()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if limit := 3 * uint64(a1.Bytes()); got > limit {
				t.Errorf("%s n=%d workers=%d: Coarsen + CSR allocated %d B, over 3 × A1.Bytes() = %d B",
					f.name, n, workers, got, limit)
			}
			t.Logf("%s workers=%d: %d B allocated, %.2f × A1.Bytes()", f.name, workers, got, float64(got)/float64(a1.Bytes()))
		}
	}
}
