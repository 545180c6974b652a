package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randCSR builds a random rows-by-cols CSR matrix with approximately
// density*rows*cols entries, deterministic under rng.
func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols, int(density*float64(rows*cols))+rows)
	for i := 0; i < rows; i++ {
		// Always place something on/near the diagonal band so rows are nonempty.
		j := i % cols
		coo.Add(i, j, rng.NormFloat64())
		for jj := 0; jj < cols; jj++ {
			if rng.Float64() < density {
				coo.Add(i, jj, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func denseMatVec(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i := range d {
		for j := range d[i] {
			y[i] += d[i][j] * x[j]
		}
	}
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIdentity(t *testing.T) {
	a := Identity(5)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	a.MatVec(y, x)
	if maxAbsDiff(x, y) != 0 {
		t.Errorf("identity MatVec changed vector: %v", y)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := a.At(i, j); got != want {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, 5)
	coo.Add(0, 1, -3)
	a := coo.ToCSR()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3 (duplicates summed)", got)
	}
	if got := a.At(0, 1); got != -3 {
		t.Errorf("At(0,1) = %v, want -3", got)
	}
	if got := a.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0", got)
	}
	if a.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", a.NNZ())
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range COO.Add")
		}
	}()
	NewCOO(2, 2, 1).Add(2, 0, 1)
}

func TestMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randCSR(rng, rows, cols, 0.2)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, cols)
		y := make([]float64, rows)
		a.MatVec(y, x)
		want := denseMatVec(a.ToDense(), x)
		if d := maxAbsDiff(y, want); d > 1e-12 {
			t.Errorf("trial %d: MatVec differs from dense by %g", trial, d)
		}
	}
}

func TestApplyRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCSR(rng, 25, 17, 0.3)
	x := randVec(rng, 17)
	full := make([]float64, 25)
	a.MatVec(full, x)
	pieces := make([]float64, 25)
	for _, r := range [][2]int{{0, 7}, {7, 20}, {20, 25}} {
		a.ApplyRange(pieces, x, r[0], r[1])
	}
	if d := maxAbsDiff(full, pieces); d != 0 {
		t.Errorf("range SpMV differs from full by %g", d)
	}
}

func TestResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCSR(rng, 12, 12, 0.3)
	x := randVec(rng, 12)
	b := randVec(rng, 12)
	r := make([]float64, 12)
	a.Residual(r, b, x)
	ax := make([]float64, 12)
	a.MatVec(ax, x)
	for i := range r {
		if math.Abs(r[i]-(b[i]-ax[i])) > 1e-14 {
			t.Fatalf("residual[%d] wrong", i)
		}
	}
	// Range version agrees.
	r2 := make([]float64, 12)
	a.ResidualRange(r2, b, x, 0, 5)
	a.ResidualRange(r2, b, x, 5, 12)
	if d := maxAbsDiff(r, r2); d != 0 {
		t.Errorf("ResidualRange differs by %g", d)
	}
}

func TestMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 9, 9, 0.4)
	x := randVec(rng, 9)
	y := randVec(rng, 9)
	y0 := append([]float64(nil), y...)
	a.ApplyAddRange(y, x, 0, a.Rows)
	ax := make([]float64, 9)
	a.MatVec(ax, x)
	for i := range y {
		if math.Abs(y[i]-(y0[i]+ax[i])) > 1e-14 {
			t.Fatalf("ApplyAddRange[%d] wrong", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := randCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.25)
		tt := a.Transpose().Transpose()
		if err := tt.Validate(); err != nil {
			t.Fatal(err)
		}
		if tt.Rows != a.Rows || tt.Cols != a.Cols || tt.NNZ() != a.NNZ() {
			t.Fatalf("transpose-of-transpose shape mismatch")
		}
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if tt.At(i, a.ColIdx[p]) != a.Vals[p] {
					t.Fatalf("(Aᵀ)ᵀ != A at (%d,%d)", i, a.ColIdx[p])
				}
			}
		}
	}
}

func TestTransposeAdjointProperty(t *testing.T) {
	// <Ax, y> == <x, Aᵀy> — a property-based check with testing/quick
	// over random seeds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		a := randCSR(rng, rows, cols, 0.3)
		at := a.Transpose()
		x := randVec(rng, cols)
		y := randVec(rng, rows)
		ax := make([]float64, rows)
		a.MatVec(ax, x)
		aty := make([]float64, cols)
		at.MatVec(aty, y)
		var lhs, rhs float64
		for i := range y {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randCSR(rng, m, k, 0.3)
		b := randCSR(rng, k, n, 0.3)
		c := MatMul(a, b)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		da, db := a.ToDense(), b.ToDense()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				for kk := 0; kk < k; kk++ {
					want += da[i][kk] * db[kk][j]
				}
				if math.Abs(c.At(i, j)-want) > 1e-10 {
					t.Fatalf("trial %d: C(%d,%d) = %v, want %v", trial, i, j, c.At(i, j), want)
				}
			}
		}
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) on small random matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randCSR(rng, 6, 5, 0.4)
		b := randCSR(rng, 5, 7, 0.4)
		c := randCSR(rng, 7, 4, 0.4)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(left.At(i, j)-right.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRAPSymmetryProperty(t *testing.T) {
	// If A is symmetric, Pᵀ A P is symmetric.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, nc := 10, 4
		base := randCSR(rng, n, n, 0.3)
		sym := Add(base, base.Transpose())
		p := randCSR(rng, n, nc, 0.4)
		ac := RAP(sym, p)
		return ac.IsSymmetric(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 8, 9, 0.3)
	b := randCSR(rng, 8, 9, 0.3)
	sum := Add(a, b)
	diff := Sub(a, b)
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := diff.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 9; j++ {
			if math.Abs(sum.At(i, j)-(a.At(i, j)+b.At(i, j))) > 1e-14 {
				t.Fatalf("Add wrong at (%d,%d)", i, j)
			}
			if math.Abs(diff.At(i, j)-(a.At(i, j)-b.At(i, j))) > 1e-14 {
				t.Fatalf("Sub wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSubSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randCSR(rng, 10, 10, 0.3)
	z := Sub(a, a)
	for _, v := range z.Vals {
		if v != 0 {
			t.Fatalf("A - A has nonzero value %v", v)
		}
	}
}

func TestDiagAndL1Norms(t *testing.T) {
	coo := NewCOO(3, 3, 6)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, -1)
	coo.Add(1, 1, 3)
	coo.Add(1, 2, -2)
	coo.Add(2, 0, 1)
	a := coo.ToCSR()
	d := a.Diag()
	want := []float64{2, 3, 0}
	if maxAbsDiff(d, want) != 0 {
		t.Errorf("Diag = %v, want %v", d, want)
	}
	l1 := a.RowL1Norms()
	wantL1 := []float64{3, 5, 1}
	if maxAbsDiff(l1, wantL1) != 0 {
		t.Errorf("RowL1Norms = %v, want %v", l1, wantL1)
	}
}

func TestLowerTriSolveRange(t *testing.T) {
	// A small SPD-ish lower-triangular-dominant matrix; a full-range lower
	// solve must satisfy L x = b exactly where L = tril(A).
	coo := NewCOO(4, 4, 10)
	vals := [][3]float64{
		{0, 0, 4}, {1, 0, -1}, {1, 1, 4}, {2, 1, -1}, {2, 2, 4},
		{3, 2, -1}, {3, 3, 4}, {0, 1, -1}, {1, 2, -1}, {2, 3, -1},
	}
	for _, e := range vals {
		coo.Add(int(e[0]), int(e[1]), e[2])
	}
	a := coo.ToCSR()
	b := []float64{1, 2, 3, 4}
	x := make([]float64, 4)
	a.LowerTriSolveRange(x, b, 0, 4)
	// Verify L x = b with L = lower triangle of A.
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-12 {
			t.Errorf("row %d: Lx = %v, want %v", i, s, b[i])
		}
	}
}

func TestLowerTriSolveBlockIgnoresOutside(t *testing.T) {
	coo := NewCOO(4, 4, 8)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, 2)
	coo.Add(2, 2, 2)
	coo.Add(3, 3, 2)
	coo.Add(2, 0, 100) // outside block [2,4): must be ignored
	coo.Add(3, 2, -2)
	a := coo.ToCSR()
	x := []float64{7, 7, 0, 0}
	b := []float64{0, 0, 2, 2}
	a.LowerTriSolveRange(x, b, 2, 4)
	if x[0] != 7 || x[1] != 7 {
		t.Error("block solve touched entries outside the block")
	}
	if math.Abs(x[2]-1) > 1e-14 {
		t.Errorf("x[2] = %v, want 1 (column 0 coupling must be ignored)", x[2])
	}
	// row 3: 2*x3 - 2*x2 = 2 -> x3 = 2
	if math.Abs(x[3]-2) > 1e-14 {
		t.Errorf("x[3] = %v, want 2", x[3])
	}
}

func TestScaleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randCSR(rng, 6, 6, 0.4)
	ref := a.Clone()
	s := []float64{1, 2, 0, -1, 0.5, 3}
	a.ScaleRows(s)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(a.At(i, j)-s[i]*ref.At(i, j)) > 1e-14 {
				t.Fatalf("ScaleRows wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Identity(3)
	a.ColIdx[1] = 5 // out of range
	if err := a.Validate(); err == nil {
		t.Error("Validate missed out-of-range column")
	}
	b := Identity(3)
	b.Vals[0] = math.NaN()
	if err := b.Validate(); err == nil {
		t.Error("Validate missed NaN")
	}
	c := Identity(3)
	c.RowPtr[1] = 3
	c.RowPtr[2] = 1
	if err := c.Validate(); err == nil {
		t.Error("Validate missed non-monotone RowPtr")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Identity(3)
	b := a.Clone()
	b.Vals[0] = 42
	if a.Vals[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !Identity(4).IsSymmetric(0) {
		t.Error("identity should be symmetric")
	}
	coo := NewCOO(2, 2, 2)
	coo.Add(0, 1, 1)
	if coo.ToCSR().IsSymmetric(0) {
		t.Error("strictly upper matrix reported symmetric")
	}
}

func TestMatVecPanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Identity(3)
	a.MatVec(make([]float64, 3), make([]float64, 4))
}
