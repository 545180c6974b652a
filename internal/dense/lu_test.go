package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asyncmg/internal/sparse"
)

func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func TestFactorSolveTridiagonal(t *testing.T) {
	n := 50
	a := tridiag(n)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x := make([]float64, n)
	f.Solve(x, b)
	r := make([]float64, n)
	a.Residual(r, b, x)
	for i, v := range r {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("residual[%d] = %g after direct solve", i, v)
		}
	}
}

func TestSolveAliasing(t *testing.T) {
	a := tridiag(10)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = 1
	}
	want := make([]float64, 10)
	f.Solve(want, b)
	// Solve in place: x aliases b.
	f.Solve(b, b)
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, b[i], want[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	// row 2 is all zeros
	coo.Add(2, 2, 0)
	if _, err := Factor(coo.ToCSR()); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Add(0, 0, 1)
	if _, err := Factor(coo.ToCSR()); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

// factorDense factors a dense row-major matrix through its CSR form.
func factorDense(m [][]float64) (*LU, error) {
	coo := sparse.NewCOO(len(m), len(m), len(m)*len(m))
	for i, row := range m {
		for j, v := range row {
			coo.Add(i, j, v)
		}
	}
	return Factor(coo.ToCSR())
}

func TestPivotingNeeded(t *testing.T) {
	// Zero on the leading diagonal forces a pivot swap.
	m := [][]float64{
		{0, 1},
		{1, 0},
	}
	f, err := factorDense(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve(x, []float64{3, 4})
	if math.Abs(x[0]-4) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestRandomSolveProperty(t *testing.T) {
	// For random diagonally dominant matrices, A (A⁻¹ b) == b.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			rowSum := 0.0
			for j := range m[i] {
				if i != j {
					m[i][j] = rng.NormFloat64()
					rowSum += math.Abs(m[i][j])
				}
			}
			m[i][i] = rowSum + 1 // strict diagonal dominance => nonsingular
		}
		lu, err := factorDense(m)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		lu.Solve(x, b)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += m[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
