package vec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAxpyAndRange(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	x := []float64{10, 20, 30, 40}
	Axpy(0.5, y, x)
	want := []float64{6, 12, 18, 24}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	AxpyRange(-1, y, x, 1, 3)
	if y[0] != 6 || y[1] != -8 || y[2] != -12 || y[3] != 24 {
		t.Fatalf("AxpyRange gave %v", y)
	}
}

func TestScaleZero(t *testing.T) {
	z := []float64{-2, -3}
	Scale(2, z)
	if z[0] != -4 || z[1] != -6 {
		t.Fatalf("Scale gave %v", z)
	}
	Zero(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Zero gave %v", z)
	}
}

func TestDotNorm(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %v", Norm2(x))
	}
	if Norm2(nil) != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", Norm2(nil))
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := []float64{1e300, 1e300}
	got := Norm2(big)
	want := 1e300 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Norm2 overflowed: %v, want %v", got, want)
	}
	if !math.IsInf(Norm2([]float64{math.Inf(1)}), 1) {
		t.Errorf("Norm2 of Inf should be Inf")
	}
	if !math.IsInf(Norm2([]float64{math.NaN()}), 1) {
		t.Errorf("Norm2 of NaN vector should report Inf (divergence sentinel)")
	}
}

func TestNorm2MatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		v := make([]float64, n)
		s := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			s += v[i] * v[i]
		}
		naive := math.Sqrt(s)
		return math.Abs(Norm2(v)-naive) <= 1e-12*(1+naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHasNonFinite(t *testing.T) {
	if HasNonFinite([]float64{1, 2, 3}) {
		t.Error("finite vector flagged")
	}
	if !HasNonFinite([]float64{1, math.NaN()}) {
		t.Error("NaN missed")
	}
	if !HasNonFinite([]float64{math.Inf(-1)}) {
		t.Error("-Inf missed")
	}
}

func TestAtomicLoadStore(t *testing.T) {
	a := NewAtomic(4)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Store(2, 3.25)
	if a.Load(2) != 3.25 {
		t.Errorf("Load(2) = %v", a.Load(2))
	}
	if a.Load(0) != 0 {
		t.Errorf("fresh element not zero")
	}
	a.Add(2, -1.25)
	if a.Load(2) != 2.0 {
		t.Errorf("Add gave %v", a.Load(2))
	}
}

func TestAtomicRanges(t *testing.T) {
	a := NewAtomic(6)
	src := []float64{1, 2, 3, 4, 5, 6}
	a.SetAll(src)
	dst := make([]float64, 6)
	a.Snapshot(dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("Snapshot[%d] = %v", i, dst[i])
		}
	}
	delta := []float64{0, 10, 0, 10, 0, 10}
	a.AddRange(delta, 1, 5)
	want := []float64{1, 12, 3, 14, 5, 6}
	a.Snapshot(dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("after AddRange, [%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	a.StoreRange(src, 2, 4)
	a.LoadRange(dst, 2, 4)
	if dst[2] != 3 || dst[3] != 4 {
		t.Fatalf("Store/LoadRange gave %v", dst[2:4])
	}
}

func TestAtomicConcurrentAdds(t *testing.T) {
	// G goroutines each add 1 to every element K times; the total must be
	// exactly G*K — this is the atomic-write correctness property.
	const n, goroutines, k = 32, 8, 200
	a := NewAtomic(n)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < k; it++ {
				for i := 0; i < n; i++ {
					a.Add(i, 1)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := a.Load(i); got != goroutines*k {
			t.Fatalf("element %d = %v, want %v (lost update)", i, got, goroutines*k)
		}
	}
}

func TestAtomicAddRangeSkipsZeros(t *testing.T) {
	// Behavioural: zero deltas must not perturb bit patterns such as -0.
	a := NewAtomic(1)
	a.Store(0, math.Copysign(0, -1))
	a.AddRange([]float64{0}, 0, 1)
	if math.Signbit(a.Load(0)) != true {
		t.Error("zero delta rewrote the stored -0")
	}
}

func TestDiverged(t *testing.T) {
	cases := []struct {
		name   string
		x      []float64
		relres float64
		want   bool
	}{
		{"converging", []float64{1, -2, 0.5}, 1e-9, false},
		{"large but finite residual", []float64{1}, DivergedRelRes, false},
		{"residual just past threshold", []float64{1}, DivergedRelRes * 1.0001, true},
		{"NaN residual", []float64{1}, math.NaN(), true},
		{"+Inf residual", []float64{1}, math.Inf(1), true},
		{"-Inf residual", []float64{1}, math.Inf(-1), true},
		{"NaN iterate", []float64{0, math.NaN(), 1}, 1e-3, true},
		{"+Inf iterate", []float64{math.Inf(1)}, 1e-3, true},
		{"-Inf iterate", []float64{math.Inf(-1)}, 1e-3, true},
		{"NaN iterate and residual", []float64{math.NaN()}, math.NaN(), true},
		{"empty iterate", nil, 0.5, false},
		{"zero residual", []float64{0}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Judge(tc.x, tc.relres, 0) == Diverged; got != tc.want {
				t.Errorf("Judge(%v, %v, 0) == Diverged is %v, want %v", tc.x, tc.relres, got, tc.want)
			}
		})
	}
}

// TestJudge walks the rule's order: a non-finite or huge residual is
// Diverged before it is Grew, and Grew before a tolerance is consulted.
func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		x           []float64
		relres, tol float64
		want        Verdict
	}{
		{[]float64{1}, 1e-9, 1e-8, Converged},
		{[]float64{1}, 1e-7, 1e-8, Stalled},
		{[]float64{1}, 1e-8, 1e-8, Converged},
		{[]float64{1}, 0.5, 0, Converged},
		{[]float64{1}, 1, 1e-8, Grew},
		{[]float64{1}, 1, 0, Grew},
		{nil, 1e9, 0, Grew},
		{nil, 2e10, 1e-8, Diverged},
		{[]float64{math.NaN()}, 1e-12, 1e-8, Diverged},
		{nil, math.NaN(), 0, Diverged},
	} {
		if got := Judge(tc.x, tc.relres, tc.tol); got != tc.want {
			t.Errorf("Judge(%v, %g, %g) = %v, want %v", tc.x, tc.relres, tc.tol, got, tc.want)
		}
	}
}

func TestHasNonFiniteTable(t *testing.T) {
	cases := []struct {
		name string
		v    []float64
		want bool
	}{
		{"nil", nil, false},
		{"finite", []float64{1, -1e308, 1e-308, 0}, false},
		{"leading NaN", []float64{math.NaN(), 0}, true},
		{"trailing Inf", []float64{0, math.Inf(1)}, true},
		{"negative Inf", []float64{math.Inf(-1)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := HasNonFinite(tc.v); got != tc.want {
				t.Errorf("HasNonFinite(%v) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}
