package op

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"asyncmg/internal/sparse"
)

// trilinearOracle materializes the trilinear interpolant of a fine n×n×n
// grid row by row, from the 1-D weights alone: odd fine indices copy their
// coarse point, even ones average their in-grid coarse neighbours.
func trilinearOracle(n int) *sparse.CSR {
	nc := n / 2
	type tap struct {
		c int
		w float64
	}
	axis := func(f int) (ts []tap) {
		if f&1 == 1 {
			return []tap{{(f - 1) / 2, 1}}
		}
		for _, c := range []int{f/2 - 1, f / 2} {
			if c >= 0 && c < nc {
				ts = append(ts, tap{c, 0.5})
			}
		}
		return ts
	}
	rows := n * n * n
	p := &sparse.CSR{Rows: rows, Cols: nc * nc * nc, RowPtr: make([]int, rows+1)}
	for row := 0; row < rows; row++ {
		for _, a := range axis(row / (n * n)) {
			for _, b := range axis(row / n % n) {
				for _, c := range axis(row % n) {
					p.ColIdx = append(p.ColIdx, (a.c*nc+b.c)*nc+c.c)
					p.Vals = append(p.Vals, (a.w*b.w)*c.w)
				}
			}
		}
		p.RowPtr[row+1] = len(p.Vals)
	}
	return p
}

// assertRows fails unless the rows of table part rows (prolongation rows
// keyed by fine class when restrict is false, restriction rows keyed by
// coarse class when true), placed on every row of the grid, have want's
// pattern and, with rounding applied, its values bitwise. It walks the
// rows without materializing the table.
func assertRows(t *testing.T, name string, g *GeomInterp, want *sparse.CSR, restrict, round bool) {
	t.Helper()
	n, nc := g.n, g.nc
	for row := 0; row < want.Rows; row++ {
		var es []stencilEntry
		var base int
		if restrict {
			ci, cj, ck := row/(nc*nc), row/nc%nc, row%nc
			ncc := len(g.crep)
			es = g.pt[(int(g.ccls[ci])*ncc+int(g.ccls[cj]))*ncc+int(g.ccls[ck])]
			base = ((2*ci+1)*n+2*cj+1)*n + 2*ck + 1
		} else {
			i, j, k := row/(n*n), row/n%n, row%n
			es = g.p[g.fineClass(i, j, k)]
			base = ((i/2-1)*nc+j/2-1)*nc + k/2 - 1
		}
		p0, p1 := want.RowPtr[row], want.RowPtr[row+1]
		if len(es) != p1-p0 {
			t.Fatalf("%s: row %d has %d entries, want %d", name, row, len(es), p1-p0)
		}
		for q, e := range es {
			w := want.Vals[p0+q]
			if round {
				w = float64(float32(w))
			}
			if col := base + int(e.off); col != want.ColIdx[p0+q] || math.Float64bits(e.v) != math.Float64bits(w) {
				t.Fatalf("%s: row %d entry %d is (%d, %v), want (%d, %v)", name, row, q, col, e.v, want.ColIdx[p0+q], w)
			}
		}
	}
}

// cuts are the row bounds a range kernel is split at: mid-line, right
// after a boundary row and right before one, so pieces start and end
// inside boundary classes.
func cuts(rows, n int) []int {
	c := []int{0, 1, n - 1, n + 1, rows / 3, rows - n - 1, rows - 1, rows}
	c = slices.DeleteFunc(c, func(v int) bool { return v < 0 || v > rows })
	slices.Sort(c)
	return slices.Compact(c)
}

// assertKernels checks every kernel of g against the CSR kernels of its
// materialized pair (p, pt) bitwise: the full-vector forms at the current
// pool size, and the range forms on pieces split at cuts.
func assertKernels(t *testing.T, name string, g *GeomInterp, p, pt *sparse.CSR, coarse, fine []float64) {
	t.Helper()
	wantP := make([]float64, p.Rows)
	p.MatVec(wantP, coarse)
	wantAdd := append([]float64(nil), fine...)
	p.ApplyAddRange(wantAdd, coarse, 0, p.Rows)
	wantT := make([]float64, pt.Rows)
	pt.MatVec(wantT, fine)

	got := make([]float64, p.Rows)
	g.Apply(got, coarse)
	assertBitwise(t, name+"/apply", got, wantP)
	copy(got, fine)
	g.ApplyAdd(got, coarse)
	assertBitwise(t, name+"/apply-add", got, wantAdd)
	gotT := make([]float64, pt.Rows)
	g.ApplyT(gotT, fine)
	assertBitwise(t, name+"/apply-t", gotT, wantT)

	clear(got)
	c := cuts(p.Rows, g.n)
	for q := 1; q < len(c); q++ {
		g.ApplyRange(got, coarse, c[q-1], c[q])
	}
	assertBitwise(t, name+"/apply-range", got, wantP)
	clear(gotT)
	c = cuts(pt.Rows, g.nc)
	for q := 1; q < len(c); q++ {
		g.ApplyTRange(gotT, fine, c[q-1], c[q])
	}
	assertBitwise(t, name+"/apply-t-range", gotT, wantT)
}

// TestGeomInterpSmoothedMatchesGEMM is the class-table interpolant
// contract. For every grid edge of the coarsening test and 34 and 64, on
// the 7-point and 27-point Laplacians and a random 27-point stencil:
//
//   - the plain table P equals the trilinear interpolant built row by row,
//     and its transpose part equals P's Transpose;
//   - the smoothed table P̄ = Smooth(A, s), for the ω-Jacobi scale ω/a_ii
//     and the ℓ1-Jacobi scale 1/Σ_j|a_ij|, equals
//     Sub(P, ScaleRows(MatMul(A, P), s)) and its transpose part that
//     product's Transpose, pattern and values bitwise, in float64 and,
//     after RoundFloat32, in float32;
//   - NNZEquivalent is the materialized nonzero count;
//   - every kernel equals the CSR kernel on the materialized pair bitwise,
//     serially and on the pool at 1, 2 and 8 workers, the range forms on
//     pieces that cut through boundary classes.
//
// n = 64 (lib-pcg-mf's fine edge) is skipped in short and race runs: its
// 27-point references hold about 300 MB.
func TestGeomInterpSmoothedMatchesGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sizes := append(append([]int(nil), coarsenSizes...), 34)
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 64)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for _, n := range sizes {
		fixtures := stencilFixtures(t, n)
		for q, f := range fixtures {
			fixtures[q] = stencilFixture{} // one n = 64 family alive at a time
			g, _, err := f.st.Coarsen()
			if err != nil {
				t.Fatal(err)
			}
			p := g.CSR()
			assertSameCSR(t, fmt.Sprintf("%s/n=%d/P", f.name, n), p, trilinearOracle(n))
			coarse, fine := randVec(rng, g.CoarseRows()), randVec(rng, g.FineRows())
			diag, l1 := f.st.Diag(), f.st.RowL1Norms()
			for _, sc := range []struct {
				name  string
				scale func(i int) float64
			}{
				{"plain", nil},
				{"w-jacobi", func(i int) float64 { return 0.9 / diag[i] }},
				{"l1-jacobi", func(i int) float64 { return 1 / l1[i] }},
			} {
				tab, want := g, p
				if sc.scale != nil {
					s := make([]float64, len(diag))
					for i := range s {
						s[i] = sc.scale(i)
					}
					tab = g.Smooth(f.st, s)
					ap := sparse.MatMul(f.csr, p)
					ap.ScaleRows(s)
					want = sparse.Sub(p, ap)
				}
				wantT := want.Transpose()
				for _, round := range []bool{false, true} {
					name := fmt.Sprintf("%s/n=%d/%s/f64", f.name, n, sc.name)
					tb := tab
					if round {
						name, tb = name[:len(name)-3]+"f32", tab.RoundFloat32()
					}
					if tb.NNZEquivalent() != want.NNZ() {
						t.Fatalf("%s: NNZEquivalent %d, product nnz %d", name, tb.NNZEquivalent(), want.NNZ())
					}
					assertRows(t, name+"/P", tb, want, false, round)
					assertRows(t, name+"/PT", tb, wantT, true, round)
					if round {
						for _, m := range []*sparse.CSR{want, wantT} {
							for q, v := range m.Vals {
								m.Vals[q] = float64(float32(v))
							}
						}
					}
					assertKernels(t, name+"/serial", tb, want, wantT, coarse, fine)
					for _, workers := range []int{1, 2, 8} {
						t.Run("workers", func(t *testing.T) {
							withWorkers(t, workers)
							assertKernels(t, fmt.Sprintf("%s/workers=%d", name, workers), tb, want, wantT, coarse, fine)
						})
					}
				}
				runtime.GC() // an n = 64 product pair is a few hundred MB
			}
		}
	}
}
