package sparse_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

// The sum, difference and row scaling live in sparsetest, where they are
// the smoothed-interpolant oracle; these tests hold them to the algebra.

func TestRAPSymmetryProperty(t *testing.T) {
	// If A is symmetric, Pᵀ A P is symmetric.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, nc := 10, 4
		base := sparse.RandCSR(rng, n, n, 0.3)
		sym := sparsetest.Add(base, base.Transpose())
		p := sparse.RandCSR(rng, n, nc, 0.4)
		ac := sparse.RAP(sym, p)
		return ac.IsSymmetric(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.RandCSR(rng, 8, 9, 0.3)
	b := sparse.RandCSR(rng, 8, 9, 0.3)
	sum := sparsetest.Add(a, b)
	diff := sparsetest.Sub(a, b)
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
	a := sparse.RandCSR(rng, 10, 10, 0.3)
	z := sparsetest.Sub(a, a)
	for _, v := range z.Vals {
		if v != 0 {
			t.Fatalf("A - A has nonzero value %v", v)
		}
	}
}

func TestScaleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := sparse.RandCSR(rng, 6, 6, 0.4)
	ref := a.Clone()
	s := []float64{1, 2, 0, -1, 0.5, 3}
	sparsetest.ScaleRows(a, s)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(a.At(i, j)-s[i]*ref.At(i, j)) > 1e-14 {
				t.Fatalf("ScaleRows wrong at (%d,%d)", i, j)
			}
		}
	}
}

// TestAddSubPresized checks the pre-sized output paths against the
// algebra they implement (Add/Sub round-trips).
func TestAddSubPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.RandKernelCSR(t, rng, 80, 80, 6)
	b := sparse.RandKernelCSR(t, rng, 80, 80, 5)
	sum := sparsetest.Add(a, b)
	if err := sum.Validate(); err != nil {
		t.Fatalf("Add output invalid: %v", err)
	}
	diff := sparsetest.Sub(sum, b)
	if err := diff.Validate(); err != nil {
		t.Fatalf("Sub output invalid: %v", err)
	}
	// (A + B) - B has A's values exactly where B has no entry; everywhere
	// it must agree with A up to one rounding of the add/sub pair.
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			got := diff.At(i, j)
			want := a.Vals[p]
			if b.At(i, j) == 0 && got != want {
				t.Fatalf("(A+B)-B at (%d,%d): %v, want %v", i, j, got, want)
			}
		}
	}
}
