package vec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// blockOrder is the reduction oracle: Σ term(i) over [0, n), each Block
// rows summed in row order and the block sums added in block order.
func blockOrder(n int, term func(i int) float64) float64 {
	s := 0.0
	for lo := 0; lo < n; lo += Block {
		b := 0.0
		for i := lo; i < min(lo+Block, n); i++ {
			b += term(i)
		}
		s += b
	}
	return s
}

// tridiag is the 1-D Laplacian [−1 2 −1], an Applier for ApplyDot.
type tridiag struct{}

func (tridiag) ApplyRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 2 * x[i]
		if i > 0 {
			s -= x[i-1]
		}
		if i+1 < len(x) {
			s -= x[i+1]
		}
		y[i] = s
	}
}

// spread returns n normals scaled over six decades, so that the order of
// summation shows in the last bits.
func spread(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestReductionsBitwiseAcrossWorkerCounts pins the block-ordered
// reduction: Dot, Norm2 and the fused kernels ApplyDot and CGUpdate equal
// the block-order oracle bit for bit at 1, 2 and 8 workers, on sizes
// around the block edge and at lib-pcg-mf's 262 144 rows, and Dot on one
// block is the plain serial sum.
func TestReductionsBitwiseAcrossWorkerCounts(t *testing.T) {
	const alpha = 0.61803
	for _, n := range []int{0, 1, Block - 1, Block, Block + 1, 3*Block + 5, 262144} {
		rng := rand.New(rand.NewSource(int64(n)))
		x, y, p, ap, r0 := spread(rng, n), spread(rng, n), spread(rng, n), spread(rng, n), spread(rng, n)

		wantDot := blockOrder(n, func(i int) float64 { return x[i] * y[i] })
		if n <= Block {
			s := 0.0
			for i := range x {
				s += x[i] * y[i]
			}
			if !sameBits(wantDot, s) {
				t.Fatalf("n=%d: one block is not the serial sum", n)
			}
		}
		wantNorm := math.Sqrt(blockOrder(n, func(i int) float64 { return x[i] * x[i] }))
		wantY := make([]float64, n)
		tridiag{}.ApplyRange(wantY, x, 0, n)
		wantApply := blockOrder(n, func(i int) float64 { return x[i] * wantY[i] })
		wantX := append([]float64(nil), x...)
		Axpy(alpha, wantX, p)
		wantR := append([]float64(nil), r0...)
		Axpy(-alpha, wantR, ap)
		wantCG := math.Sqrt(blockOrder(n, func(i int) float64 { return wantR[i] * wantR[i] }))

		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				withWorkers(t, workers)
				if got := Dot(x, y); !sameBits(got, wantDot) {
					t.Errorf("Dot = %v, want %v", got, wantDot)
				}
				if got := Norm2(x); n > 0 && !sameBits(got, wantNorm) {
					t.Errorf("Norm2 = %v, want %v", got, wantNorm)
				}
				gotY := make([]float64, n)
				if got := ApplyDot(3*n, tridiag{}, gotY, x); !sameBits(got, wantApply) {
					t.Errorf("ApplyDot = %v, want %v", got, wantApply)
				}
				sameSlice(t, "ApplyDot y", gotY, wantY)
				gotX, gotR := append([]float64(nil), x...), append([]float64(nil), r0...)
				if got := CGUpdate(alpha, gotX, gotR, p, ap); n > 0 && !sameBits(got, wantCG) {
					t.Errorf("CGUpdate = %v, want %v", got, wantCG)
				}
				sameSlice(t, "CGUpdate x", gotX, wantX)
				sameSlice(t, "CGUpdate r", gotR, wantR)
			})
		}
	}
}

// exactNorm2 is ‖v‖₂ from the sum of squares in 512-bit arithmetic, +Inf
// when v holds a NaN or an infinity.
func exactNorm2(v []float64) float64 {
	s := new(big.Float).SetPrec(512)
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return math.Inf(1)
		}
		b := new(big.Float).SetPrec(512).SetFloat64(x)
		s.Add(s, b.Mul(b, b))
	}
	f, _ := s.Sqrt(s).Float64()
	return f
}

// TestNorm2Extremes holds Norm2 to the exact norm where one pass of Σx²
// overflows, underflows or goes subnormal, and where v is not finite: the
// scaled fallback takes over below norm2Floor and past MaxFloat64, and a
// NaN reads +Inf. It also covers the fused norm of CGUpdate.
func TestNorm2Extremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scaled := func(m float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = m * (1 + rng.Float64())
		}
		return v
	}
	cases := map[string][]float64{
		"1e200":       scaled(1e200, 9),
		"1e-200":      scaled(1e-200, 9),
		"1e-160":      scaled(1e-160, 9),
		"1e154":       scaled(1e154, Block+3),
		"mixed":       {1e200, 1, -1e-200, 3e199},
		"subnormal":   {5e-324, -1e-310, 2e-315, 0},
		"min-normal":  {math.SmallestNonzeroFloat64, 0x1p-1022},
		"+Inf":        {1, math.Inf(1), 2},
		"-Inf":        {math.Inf(-1), 1e-300},
		"NaN":         {1, math.NaN(), 2},
		"NaN+Inf":     {math.Inf(1), math.NaN()},
		"zero":        {0, 0, 0},
		"neg-zero":    {math.Copysign(0, -1)},
		"empty":       nil,
		"normal":      scaled(1, 100),
		"near-floor":  scaled(1e-100, 4),
		"max":         {math.MaxFloat64, math.MaxFloat64},
		"one-big":     {1e300, 1e-300},
		"blocks-1e-1": scaled(1e-1, 3*Block+5),
	}
	for name, v := range cases {
		want := exactNorm2(v)
		check := func(what string, got float64) {
			t.Helper()
			if math.IsInf(want, 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("%s %s = %v, want +Inf", name, what, got)
				}
				return
			}
			if math.Abs(got-want) > 1e-14*want+math.SmallestNonzeroFloat64 {
				t.Errorf("%s %s = %v, want %v", name, what, got, want)
			}
		}
		check("Norm2", Norm2(v))
		// CGUpdate with α = 0 leaves r as it is and returns its norm.
		zero := make([]float64, len(v))
		check("CGUpdate", CGUpdate(0, make([]float64, len(v)), append([]float64(nil), v...), zero, zero))
	}
}

// TestReductionsConcurrent runs sharded reductions from several
// goroutines at once, as concurrent Krylov solves on one engine do: each
// must get its own pooled partial slots.
func TestReductionsConcurrent(t *testing.T) {
	withWorkers(t, 2)
	const n = 3*Block + 5
	rng := rand.New(rand.NewSource(11))
	vs := make([][]float64, 4)
	want := make([]float64, len(vs))
	for g := range vs {
		vs[g] = spread(rng, n)
		want[g] = blockOrder(n, func(i int) float64 { return vs[g][i] * vs[g][i] })
	}
	var wg sync.WaitGroup
	for g := range vs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if got := Dot(vs[g], vs[g]); !sameBits(got, want[g]) {
					t.Errorf("goroutine %d: Dot = %v, want %v", g, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
