package sparse

import (
	"math/rand"
	"testing"
)

// TestBlockKernelsBitwiseMatchSerialColumns is the contract the block
// cycle rests on: a block kernel over k packed columns is
// bitwise-identical, column by column, to k single-vector serial kernels,
// for any worker count. References are computed with the plain serial
// kernels before any pool swap.
func TestBlockKernelsBitwiseMatchSerialColumns(t *testing.T) {
	type fixture struct {
		a         *CSR
		k         int
		xs, bs    [][]float64 // per-column operands
		x, b, y0  []float64   // packed operands (y0 = packed initial y)
		matvec    [][]float64 // serial references per column
		matvecAdd [][]float64
		residual  [][]float64
	}
	var fixtures []*fixture
	for seed := int64(40); seed < 43; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &fixture{k: []int{1, 3, 8}[int(seed-40)]}
		f.a = randKernelCSR(t, rng, 173+11*int(seed), 173+11*int(seed), 6)
		n := f.a.Rows
		for c := 0; c < f.k; c++ {
			f.xs = append(f.xs, randVec(rng, f.a.Cols))
			f.bs = append(f.bs, randVec(rng, n))
		}
		f.x = packColumns(f.xs)
		f.b = packColumns(f.bs)
		var y0s [][]float64
		for c := 0; c < f.k; c++ {
			y0s = append(y0s, randVec(rng, n))
		}
		f.y0 = packColumns(y0s)
		for c := 0; c < f.k; c++ {
			mv := make([]float64, n)
			f.a.MatVec(mv, f.xs[c])
			f.matvec = append(f.matvec, mv)
			ma := append([]float64(nil), y0s[c]...)
			f.a.MatVecAdd(ma, f.xs[c])
			f.matvecAdd = append(f.matvecAdd, ma)
			r := make([]float64, n)
			f.a.Residual(r, f.bs[c], f.xs[c])
			f.residual = append(f.residual, r)
		}
		fixtures = append(fixtures, f)
	}

	eqCol := func(t *testing.T, name string, block []float64, k, c int, want []float64) {
		t.Helper()
		for i := range want {
			if block[i*k+c] != want[i] {
				t.Fatalf("%s column %d differs at row %d: %v vs %v", name, c, i, block[i*k+c], want[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
			withWorkers(t, workers)
			for _, f := range fixtures {
				n, k := f.a.Rows, f.k
				y := make([]float64, n*k)
				f.a.RunBlock(KApplyBlock, y, nil, f.x, k)
				for c := 0; c < k; c++ {
					eqCol(t, "RunBlock(KApplyBlock)", y, k, c, f.matvec[c])
				}
				ya := append([]float64(nil), f.y0...)
				f.a.RunBlock(KApplyAddBlock, ya, nil, f.x, k)
				for c := 0; c < k; c++ {
					eqCol(t, "RunBlock(KApplyAddBlock)", ya, k, c, f.matvecAdd[c])
				}
				r := make([]float64, n*k)
				f.a.RunBlock(KResidualBlock, r, f.b, f.x, k)
				for c := 0; c < k; c++ {
					eqCol(t, "RunBlock(KResidualBlock)", r, k, c, f.residual[c])
				}
				// Aliased residual (r == b) must agree too.
				rb := append([]float64(nil), f.b...)
				f.a.RunBlock(KResidualBlock, rb, rb, f.x, k)
				for c := 0; c < k; c++ {
					eqCol(t, "RunBlock(KResidualBlock, aliased)", rb, k, c, f.residual[c])
				}
			}
		})
	}
}

// packColumns interleaves k equal-length columns into a row-major block
// vector: out[i*k+c] = cols[c][i].
func packColumns(cols [][]float64) []float64 {
	k := len(cols)
	out := make([]float64, len(cols[0])*k)
	for c, col := range cols {
		for i, v := range col {
			out[i*k+c] = v
		}
	}
	return out
}
