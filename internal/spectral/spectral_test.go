package spectral

import (
	"math"
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

func diag(vals ...float64) *sparse.CSR {
	coo := sparse.NewCOO(len(vals), len(vals), len(vals))
	for i, v := range vals {
		coo.Add(i, i, v)
	}
	return coo.ToCSR()
}

func TestRadiusDiagonal(t *testing.T) {
	a := diag(0.5, -3, 2)
	r, err := Radius(a, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-8 {
		t.Errorf("radius = %v, want 3", r)
	}
}

func TestRadiusZeroMatrix(t *testing.T) {
	a := &sparse.CSR{Rows: 3, Cols: 3, RowPtr: make([]int, 4)}
	r, err := Radius(a, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("radius of zero matrix = %v", r)
	}
}

func TestRadiusKnown2x2(t *testing.T) {
	// [[2 1],[1 2]] has eigenvalues 1 and 3.
	coo := sparse.NewCOO(2, 2, 4)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 2)
	r, err := Radius(coo.ToCSR(), 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-8 {
		t.Errorf("radius = %v, want 3", r)
	}
}

func TestRadiusRejectsNonSquare(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Add(0, 0, 1)
	if _, err := Radius(coo.ToCSR(), 1e-10, 10); err == nil {
		t.Error("non-square accepted")
	}
}

func TestAbsIterationMatrixEntries(t *testing.T) {
	// A = [[2 -1],[ -1 2]], scale = 0.5/diag => G = I - 0.25*A... with
	// scale_i = 0.5/2 = 0.25: G = [[1-0.5, 0.25],[0.25, 1-0.5]] =
	// [[0.5 0.25],[0.25 0.5]]; all positive so |G| = G.
	coo := sparse.NewCOO(2, 2, 4)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, -1)
	coo.Add(1, 0, -1)
	coo.Add(1, 1, 2)
	g, err := AbsIterationMatrix(coo.ToCSR(), []float64{0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.5, 0.25}, {0.25, 0.5}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(sparsetest.At(g, i, j)-want[i][j]) > 1e-15 {
				t.Errorf("|G|(%d,%d) = %v, want %v", i, j, sparsetest.At(g, i, j), want[i][j])
			}
		}
	}
	// ρ(|G|) = 0.75 for this matrix.
	r, err := Radius(g, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.75) > 1e-8 {
		t.Errorf("radius = %v, want 0.75", r)
	}
}

func TestAbsIterationMatrixMissingDiagonal(t *testing.T) {
	// A row with no stored diagonal still yields the identity contribution.
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	g, err := AbsIterationMatrix(coo.ToCSR(), []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sparsetest.At(g, 0, 0) != 1 || sparsetest.At(g, 1, 1) != 1 {
		t.Error("identity part missing for rows without diagonal entries")
	}
}

func TestAsyncSmootherRadius7pt(t *testing.T) {
	// ω-Jacobi on the 7pt Laplacian with ω = 0.9: the asynchronous
	// convergence condition ρ(|G|) < 1 must hold (this is why async GS
	// converges in the experiments).
	a := grid.Laplacian7pt(6)
	scale, err := smoother.InterpolantScalingOp(op.FromCSR(a), smoother.Config{Kind: smoother.WJacobi, Omega: 0.9}, smoother.Precomputed{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AsyncSmootherRadius(a, scale)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1 {
		t.Errorf("rho(|G|) = %v >= 1 for 7pt omega-Jacobi", r)
	}
	if r < 0.5 {
		t.Errorf("rho(|G|) = %v implausibly small", r)
	}
}

func TestAsyncSmootherRadiusL1AlwaysSafe(t *testing.T) {
	// ℓ1-Jacobi: |G| row sums are (Σ|a_ij| - |a_ii| + |a_ii - Σ|a_ij||)/Σ|a_ij| <= 1,
	// so ρ(|G|) <= 1 on any matrix; on the Laplacians it is < 1.
	a := grid.Laplacian27pt(5)
	scale, err := smoother.InterpolantScalingOp(op.FromCSR(a), smoother.Config{Kind: smoother.L1Jacobi}, smoother.Precomputed{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AsyncSmootherRadius(a, scale)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1+1e-9 {
		t.Errorf("rho(|G|) = %v > 1 for l1-Jacobi", r)
	}
}

func TestOverRelaxedJacobiUnsafe(t *testing.T) {
	// ω = 2 makes |1 - ω·(a_ii scale)| = 1 on the diagonal plus positive
	// off-diagonals: ρ(|G|) > 1, correctly flagging the divergent
	// configuration.
	a := grid.Laplacian7pt(4)
	scale, err := smoother.InterpolantScalingOp(op.FromCSR(a), smoother.Config{Kind: smoother.WJacobi, Omega: 2}, smoother.Precomputed{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AsyncSmootherRadius(a, scale)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1 {
		t.Errorf("rho(|G|) = %v <= 1 for omega=2 — should flag divergence", r)
	}
}
