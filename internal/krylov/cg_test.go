package krylov

import (
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

func TestPlainCGSolvesSPD(t *testing.T) {
	a := grid.Laplacian7pt(8)
	b := grid.RandomRHS(a.Rows, 1)
	res, err := PCG(op.FromCSR(a), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: relres %g after %d its", res.RelRes, res.Iterations)
	}
	// Verify against the true residual.
	r := make([]float64, a.Rows)
	a.Residual(r, b, res.X)
	if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-8 {
		t.Errorf("true relres %g disagrees with reported %g", rel, res.RelRes)
	}
}

func TestCGHistoryMonotoneEnough(t *testing.T) {
	// CG residual norms are not strictly monotone but must trend down; the
	// last entry must be the minimum within tolerance.
	a := grid.Laplacian7pt(6)
	b := grid.RandomRHS(a.Rows, 2)
	res, err := PCG(op.FromCSR(a), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	for _, h := range res.History[:len(res.History)-1] {
		if h < last {
			t.Fatalf("history not terminating at minimum: %g before final %g", h, last)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := grid.Laplacian7pt(4)
	res, err := PCG(op.FromCSR(a), make([]float64, a.Rows), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || vec.Norm2(res.X) != 0 {
		t.Error("zero RHS must give zero solution immediately")
	}
}

func TestCGValidation(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Add(0, 0, 1)
	if _, err := PCG(op.FromCSR(coo.ToCSR()), make([]float64, 2), DefaultOptions()); err == nil {
		t.Error("non-square accepted")
	}
	a := grid.Laplacian7pt(3)
	if _, err := PCG(op.FromCSR(a), make([]float64, 5), DefaultOptions()); err == nil {
		t.Error("wrong-length RHS accepted")
	}
	opt := DefaultOptions()
	opt.MaxIter = 0
	if _, err := PCG(op.FromCSR(a), make([]float64, a.Rows), opt); err == nil {
		t.Error("MaxIter 0 accepted")
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	// An indefinite matrix triggers ErrBreakdown rather than garbage.
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	_, err := PCG(op.FromCSR(a), []float64{0, 1}, DefaultOptions())
	if err != ErrBreakdown {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
}

func buildSetup(t *testing.T, n int) *engine.Engine {
	t.Helper()
	a := grid.Laplacian7pt(n)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	s, err := engine.New(a, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBPXPreconditionedCGBeatsPlainCG(t *testing.T) {
	// The whole point of BPX: as a preconditioner it gives (near)
	// condition-number-independent CG iteration counts. It must beat plain
	// CG decisively on a Laplacian.
	s := buildSetup(t, 10)
	a := op.AsCSR(s.Ops[0])
	b := grid.RandomRHS(a.Rows, 3)

	plain, err := PCG(op.FromCSR(a), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.M = NewMGPreconditioner(s, engine.BPX)
	pcg, err := PCG(op.FromCSR(a), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !pcg.Converged {
		t.Fatalf("BPX-PCG did not converge: %g", pcg.RelRes)
	}
	if pcg.Iterations >= plain.Iterations {
		t.Errorf("BPX-PCG took %d its, plain CG %d — preconditioner useless",
			pcg.Iterations, plain.Iterations)
	}
}

func TestBPXPCGIterationsGridIndependent(t *testing.T) {
	// BPX-preconditioned CG iteration counts must stay (nearly) flat as
	// the grid grows.
	var iters []int
	for _, n := range []int{6, 9, 12} {
		s := buildSetup(t, n)
		a := op.AsCSR(s.Ops[0])
		b := grid.RandomRHS(a.Rows, 4)
		opt := DefaultOptions()
		opt.Tol = 1e-8
		opt.M = NewMGPreconditioner(s, engine.BPX)
		res, err := PCG(op.FromCSR(a), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d did not converge", n)
		}
		iters = append(iters, res.Iterations)
	}
	if iters[2] > 2*iters[0]+3 {
		t.Errorf("BPX-PCG iterations grow with grid: %v", iters)
	}
}

func TestSymmetrizedMultaddPreconditioner(t *testing.T) {
	// The symmetrized Multadd cycle is SPD (it equals the symmetric
	// V(1,1)-cycle), so PCG with it must converge fast with no breakdown.
	s := buildSetup(t, 10)
	a := op.AsCSR(s.Ops[0])
	b := grid.RandomRHS(a.Rows, 5)
	p := NewMGPreconditioner(s, engine.Multadd)
	p.Symmetrized = true
	opt := DefaultOptions()
	opt.M = p
	res, err := PCG(op.FromCSR(a), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 30 {
		t.Errorf("symmetrized-Multadd PCG: converged=%v in %d its", res.Converged, res.Iterations)
	}
}

func TestIdentityPreconditionerEqualsPlainCG(t *testing.T) {
	a := grid.Laplacian7pt(5)
	b := grid.RandomRHS(a.Rows, 6)
	plain, err := PCG(op.FromCSR(a), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.M = Identity{}
	ident, err := PCG(op.FromCSR(a), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != ident.Iterations {
		t.Errorf("identity preconditioner changed iterations: %d vs %d",
			ident.Iterations, plain.Iterations)
	}
	for i := range plain.X {
		if math.Abs(plain.X[i]-ident.X[i]) > 1e-14 {
			t.Fatal("identity preconditioner changed the iterates")
		}
	}
}

func TestCGMaxIterNonConverged(t *testing.T) {
	a := grid.Laplacian7pt(8)
	b := grid.RandomRHS(a.Rows, 7)
	opt := DefaultOptions()
	opt.MaxIter = 3
	res, err := PCG(op.FromCSR(a), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("claimed convergence in 3 iterations at 1e-9")
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Iterations)
	}
}
