package krylov

import (
	"context"
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// buildConvDiffSetup builds an AMG hierarchy on the non-symmetric upwind
// operator (the classical strength/interp machinery stays well-defined
// for M-matrices) plus a reproducible right-hand side.
func buildConvDiffSetup(t *testing.T, n int, beta float64) (*engine.Engine, []float64) {
	t.Helper()
	a := grid.ConvectionDiffusion7pt(n, beta)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	s, err := engine.New(a, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, grid.RandomRHS(a.Rows, 11)
}

func TestFGMRESSolvesSPD(t *testing.T) {
	// Sanity: on an SPD system unpreconditioned FGMRES(m) converges and
	// the reported residual matches the true one.
	a := grid.Laplacian7pt(8)
	b := grid.RandomRHS(a.Rows, 1)
	opt := DefaultOptions()
	opt.Tol = 1e-8
	res, err := FGMRESCtx(context.Background(), op.FromCSR(a), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged {
		t.Fatalf("FGMRES did not converge: relres %g after %d its", res.RelRes, res.Iterations)
	}
	r := make([]float64, a.Rows)
	a.Residual(r, b, res.X)
	nb := 0.0
	for _, v := range b {
		nb += v * v
	}
	rr := 0.0
	for _, v := range r {
		rr += v * v
	}
	if rel := math.Sqrt(rr / nb); rel > 1e-7 {
		t.Errorf("true relres %g disagrees with reported %g", rel, res.RelRes)
	}
}

func TestFGMRESNonSymmetricConvectionDiffusion(t *testing.T) {
	// The headline capability: AMG-preconditioned FGMRES converges on the
	// strongly non-symmetric upwind convection-diffusion operator.
	s, b := buildConvDiffSetup(t, 10, 4.0)
	p := NewMGPreconditioner(s, engine.Multadd)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = 1e-8
	opt.MaxIter = 200
	opt.M = p
	res, err := FGMRESCtx(context.Background(), s.Ops[0], b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged {
		t.Fatalf("FGMRES did not converge on conv-diff: relres %g after %d its",
			res.RelRes, res.Iterations)
	}
	// Verify against the true residual through the operator view.
	r := make([]float64, len(b))
	s.Ops[0].Residual(r, b, res.X)
	num, den := 0.0, 0.0
	for i := range b {
		num += r[i] * r[i]
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-6 {
		t.Errorf("true relres %g, reported %g", rel, res.RelRes)
	}
}

func TestFGMRESRestartsStillConverge(t *testing.T) {
	// A tiny restart length forces many restart sweeps; the solver must
	// still reach tolerance (more slowly).
	s, b := buildConvDiffSetup(t, 8, 2.0)
	p := NewMGPreconditioner(s, engine.Multadd)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = 1e-8
	opt.MaxIter = 400
	opt.Restart = 3
	opt.M = p
	res, err := FGMRESCtx(context.Background(), s.Ops[0], b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged {
		t.Fatalf("FGMRES(3) did not converge: relres %g after %d its", res.RelRes, res.Iterations)
	}
}

func TestFGMRESHistoryMonotone(t *testing.T) {
	// Within one restart sweep the GMRES least-squares residual is
	// non-increasing; across restarts the recomputed true residual equals
	// the last estimate up to rounding. The history must never grow.
	s, b := buildConvDiffSetup(t, 8, 4.0)
	p := NewMGPreconditioner(s, engine.Multadd)
	defer p.Release()
	opt := DefaultOptions()
	opt.Tol = 1e-10
	opt.MaxIter = 120
	opt.M = p
	res, err := FGMRESCtx(context.Background(), s.Ops[0], b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-8) {
			t.Fatalf("history grew at %d: %g -> %g", i, res.History[i-1], res.History[i])
		}
	}
}

func TestFGMRESValidationAndZeroRHS(t *testing.T) {
	a := op.FromCSR(grid.Laplacian7pt(4))
	opt := DefaultOptions()
	opt.MaxIter = 0
	if _, err := FGMRESCtx(context.Background(), a, make([]float64, a.Rows()), opt); err == nil {
		t.Error("MaxIter 0 accepted")
	}
	if _, err := FGMRESCtx(context.Background(), a, make([]float64, 5), DefaultOptions()); err == nil {
		t.Error("wrong-length RHS accepted")
	}
	res, err := FGMRESCtx(context.Background(), a, make([]float64, a.Rows()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged || res.RelRes != 0 {
		t.Error("zero RHS must converge immediately")
	}
}

func TestFGMRESMatrixFreePreconditioned(t *testing.T) {
	// The operator-generic contract: FGMRES runs on a matrix-free stencil
	// fine level with a multigrid preconditioner built from the same
	// operator.
	st := op.NewStencil7(8)
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	s, err := engine.NewOperator(st, opt, smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(st.Rows(), 3)
	p := NewMGPreconditioner(s, engine.Mult)
	defer p.Release()
	o := DefaultOptions()
	o.Tol = 1e-8
	o.M = p
	res, err := FGMRESCtx(context.Background(), s.Ops[0], b, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged || res.Iterations > 25 {
		t.Fatalf("matrix-free FGMRES: verdict %v in %d its", res.Verdict, res.Iterations)
	}
}
