package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
	"asyncmg/internal/vec"
)

func testOptions() amg.Options {
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	return opt
}

func setup7pt(t *testing.T, n int, cfg smoother.Config) *Engine {
	t.Helper()
	a := grid.Laplacian7pt(n)
	s, err := New(a, testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// csrItp returns the stored float64 pair behind an interpolant view of the
// default configuration.
func csrItp(t *testing.T, itp op.Interp) *op.CSRInterp[float64, int] {
	t.Helper()
	c, ok := itp.(*op.CSRInterp[float64, int])
	if !ok {
		t.Fatalf("interpolant is %T, want a float64 CSR pair", itp)
	}
	return c
}

func TestSetupStructure(t *testing.T) {
	s := setup7pt(t, 8, smoother.DefaultConfig())
	l := s.NumLevels()
	if l < 2 {
		t.Fatalf("levels = %d", l)
	}
	if len(s.Itp) != l-1 || len(s.SItp) != l-1 {
		t.Fatalf("interpolant slices wrong length")
	}
	for k := 0; k < l-1; k++ {
		p, pbar := csrItp(t, s.Itp[k]).P, csrItp(t, s.SItp[k]).P
		if p.Rows != s.LevelSize(k) || p.Cols != s.LevelSize(k+1) {
			t.Errorf("P[%d] shape %dx%d, levels %d/%d", k, p.Rows, p.Cols, s.LevelSize(k), s.LevelSize(k+1))
		}
		if pbar.Rows != p.Rows || pbar.Cols != p.Cols {
			t.Errorf("PBar[%d] shape mismatch", k)
		}
		// PBar should be denser than P (it includes A·P fill).
		if pbar.NNZ() < p.NNZ() {
			t.Errorf("PBar[%d] sparser than P — smoothing missing?", k)
		}
	}
}

func TestSmoothedInterpolantFormula(t *testing.T) {
	// P̄ = (I − ωD⁻¹A) P entry-wise on a small problem.
	a := grid.Laplacian7pt(4)
	cfg := smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1}
	s, err := New(a, testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, pbar := csrItp(t, s.Itp[0]).P, csrItp(t, s.SItp[0]).P
	d := a.Diag()
	ap := sparse.MatMul(a, p)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := sparsetest.At(p, i, j) - 0.9/d[i]*sparsetest.At(ap, i, j)
			if math.Abs(sparsetest.At(pbar, i, j)-want) > 1e-12 {
				t.Fatalf("PBar(%d,%d) = %v, want %v", i, j, sparsetest.At(pbar, i, j), want)
			}
		}
	}
}

func TestMultConvergesAndIsGridSizeIndependent(t *testing.T) {
	// The classical V(1,1)-cycle must converge at a rate independent of
	// the grid size: cycle counts to 1e-8 within a small factor across
	// sizes.
	var cycles []int
	for _, n := range []int{8, 12, 16} {
		s := setup7pt(t, n, smoother.DefaultConfig())
		b := grid.RandomRHS(s.LevelSize(0), 1)
		_, hist := s.Solve(Mult, b, 60)
		c := firstBelow(hist, 1e-8)
		if c < 0 {
			t.Fatalf("n=%d: no convergence in 60 cycles (last %g)", n, hist[len(hist)-1])
		}
		cycles = append(cycles, c)
	}
	if cycles[2] > 2*cycles[0]+5 {
		t.Errorf("cycle counts %v grow with grid size — not grid-independent", cycles)
	}
}

func firstBelow(hist []float64, tol float64) int {
	for i, h := range hist {
		if h < tol {
			return i
		}
	}
	return -1
}

func TestMultaddConverges(t *testing.T) {
	s := setup7pt(t, 10, smoother.DefaultConfig())
	b := grid.RandomRHS(s.LevelSize(0), 2)
	_, hist := s.Solve(Multadd, b, 80)
	if c := firstBelow(hist, 1e-8); c < 0 {
		t.Fatalf("Multadd did not converge in 80 cycles: last %g", hist[len(hist)-1])
	}
}

func TestAFACxConverges(t *testing.T) {
	s := setup7pt(t, 10, smoother.DefaultConfig())
	b := grid.RandomRHS(s.LevelSize(0), 3)
	_, hist := s.Solve(AFACx, b, 300)
	if c := firstBelow(hist, 1e-8); c < 0 {
		t.Fatalf("AFACx did not converge in 300 cycles: last %g", hist[len(hist)-1])
	}
}

func TestAFACxSlowerThanMultadd(t *testing.T) {
	// The paper's Table I shows AFACx consistently needs more V-cycles
	// than Multadd.
	s := setup7pt(t, 10, smoother.DefaultConfig())
	b := grid.RandomRHS(s.LevelSize(0), 4)
	_, hMa := s.Solve(Multadd, b, 300)
	_, hAf := s.Solve(AFACx, b, 300)
	cMa, cAf := firstBelow(hMa, 1e-8), firstBelow(hAf, 1e-8)
	if cMa < 0 || cAf < 0 {
		t.Fatal("one of the methods did not converge")
	}
	if cAf < cMa {
		t.Errorf("AFACx (%d cycles) beat Multadd (%d) — unexpected ordering", cAf, cMa)
	}
}

func TestBPXOverCorrects(t *testing.T) {
	// BPX as a solver must not converge the way Multadd does — the
	// over-correction makes it diverge (or at best stall) on this problem.
	s := setup7pt(t, 8, smoother.DefaultConfig())
	b := grid.RandomRHS(s.LevelSize(0), 5)
	_, hist := s.Solve(BPX, b, 30)
	if c := firstBelow(hist, 1e-8); c >= 0 {
		t.Fatalf("BPX converged in %d cycles — over-correction missing", c)
	}
	if hist[len(hist)-1] < hist[0] {
		// Some residual decrease can happen early; require that it is far
		// from the Multadd behaviour.
		_, histMa := s.Solve(Multadd, b, 30)
		if hist[len(hist)-1] < 10*histMa[len(histMa)-1] {
			t.Errorf("BPX residual %g too close to Multadd %g — not over-correcting",
				hist[len(hist)-1], histMa[len(histMa)-1])
		}
	}
}

func TestMultaddTwoGridFormula(t *testing.T) {
	// On a forced two-level hierarchy, one Multadd cycle from x=0 must
	// equal x = Λ₀ b + P̄ A₁⁻¹ P̄ᵀ b exactly (Equation 11 of the paper).
	a := grid.Laplacian7pt(4)
	opt := testOptions()
	opt.MaxLevels = 2
	cfg := smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1}
	s, err := New(a, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", s.NumLevels())
	}
	n := a.Rows
	b := grid.RandomRHS(n, 6)
	x := make([]float64, n)
	w := s.NewWorkspace()
	s.MultaddCycle(x, b, w)

	// Reference computation.
	want := make([]float64, n)
	s.Smo[0].Apply(want, b) // Λ₀ b
	rc := make([]float64, s.LevelSize(1))
	csrItp(t, s.SItp[0]).PT.MatVec(rc, b)
	ec := make([]float64, s.LevelSize(1))
	s.CoarseSolve(ec, rc)
	fine := make([]float64, n)
	csrItp(t, s.SItp[0]).P.MatVec(fine, ec)
	vec.Axpy(1, want, fine)

	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-11 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestAFACxTwoGridModifiedRHSEquivalence(t *testing.T) {
	// The modified-RHS implementation must match the textbook three-step
	// AFACx correction x += P⁰_k e_k − P⁰_{k+1} e_{k+1} on two levels.
	a := grid.Laplacian7pt(4)
	opt := testOptions()
	opt.MaxLevels = 2
	cfg := smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1}
	s, err := New(a, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := grid.RandomRHS(n, 7)
	x := make([]float64, n)
	w := s.NewWorkspace()
	s.AFACxCycle(x, b, w)

	// Textbook form. Grid 0: e1s = Λ₁ r₁ (smoothing);
	// e0 = P e1s + Λ₀(r₀ − A₀ P e1s); contribution P⁰₀ e0 − P⁰₁ e1s
	// = e0 − P e1s. Grid 1 (coarsest): contribution P A₁⁻¹ r₁.
	r0 := append([]float64(nil), b...)
	r1 := make([]float64, s.LevelSize(1))
	itp := csrItp(t, s.Itp[0])
	itp.PT.MatVec(r1, r0)
	e1s := make([]float64, s.LevelSize(1))
	s.Smo[1].Apply(e1s, r1)
	pe := make([]float64, n)
	itp.P.MatVec(pe, e1s)
	mod := make([]float64, n)
	s.Ops[0].Residual(mod, r0, pe)
	e0tilde := make([]float64, n)
	s.Smo[0].Apply(e0tilde, mod)
	e0 := make([]float64, n)
	for i := range e0 {
		e0[i] = pe[i] + e0tilde[i]
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = e0[i] - pe[i] // grid 0 contribution
	}
	ec := make([]float64, s.LevelSize(1))
	s.CoarseSolve(ec, r1)
	pec := make([]float64, n)
	itp.P.MatVec(pec, ec)
	vec.Axpy(1, want, pec) // grid 1 contribution

	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-11 {
			t.Fatalf("x[%d] = %v, want %v (diff %g)", i, x[i], want[i], x[i]-want[i])
		}
	}
}

func TestAllSmoothersConvergeWithMultadd(t *testing.T) {
	for _, cfg := range []smoother.Config{
		{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1},
		{Kind: smoother.L1Jacobi, Blocks: 1},
		{Kind: smoother.HybridJGS, Blocks: 8},
		{Kind: smoother.AsyncGS, Blocks: 8},
	} {
		s := setup7pt(t, 8, cfg)
		b := grid.RandomRHS(s.LevelSize(0), 8)
		_, hist := s.Solve(Multadd, b, 150)
		if c := firstBelow(hist, 1e-8); c < 0 {
			t.Errorf("%v: Multadd did not converge (last %g)", cfg.Kind, hist[len(hist)-1])
		}
	}
}

func TestMultConvergesFasterPerCycleThanMultadd(t *testing.T) {
	// Mult's multiplicative corrections should need no more cycles than
	// the additive Multadd with the same smoother (the paper's V-cycle
	// columns show Mult <= Multadd in cycles for sync runs).
	s := setup7pt(t, 10, smoother.DefaultConfig())
	b := grid.RandomRHS(s.LevelSize(0), 9)
	_, hMult := s.Solve(Mult, b, 200)
	_, hMa := s.Solve(Multadd, b, 300)
	cMult, cMa := firstBelow(hMult, 1e-8), firstBelow(hMa, 1e-8)
	if cMult < 0 || cMa < 0 {
		t.Fatal("no convergence")
	}
	if cMult > cMa+2 {
		t.Errorf("Mult needed %d cycles vs Multadd %d", cMult, cMa)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	s := setup7pt(t, 6, smoother.DefaultConfig())
	b := make([]float64, s.LevelSize(0))
	x, hist := s.Solve(Mult, b, 3)
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero RHS")
		}
	}
	for _, h := range hist {
		if h != 0 && h != 1 {
			// hist[0] is defined as 1; later entries 0/0 guard gives 0.
			t.Fatalf("unexpected history %v", hist)
		}
	}
}

func TestSingleLevelHierarchySolvesDirectly(t *testing.T) {
	a := grid.Laplacian7pt(3)
	opt := testOptions()
	opt.MaxLevels = 1
	s, err := New(a, opt, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(a.Rows, 10)
	_, hist := s.Solve(Mult, b, 1)
	if hist[len(hist)-1] > 1e-10 {
		t.Errorf("single-level cycle should be a direct solve, rel res %g", hist[len(hist)-1])
	}
	// Additive methods degenerate identically.
	_, hist = s.Solve(Multadd, b, 1)
	if hist[len(hist)-1] > 1e-10 {
		t.Errorf("Multadd single-level rel res %g", hist[len(hist)-1])
	}
}

func TestCycleUnknownMethodPanics(t *testing.T) {
	s := setup7pt(t, 4, smoother.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := s.NewWorkspace()
	s.Cycle(Method(42), make([]float64, s.LevelSize(0)), make([]float64, s.LevelSize(0)), w)
}

func TestSolveDetectsDivergence(t *testing.T) {
	// ω = 2 Jacobi on the Laplacian diverges; Solve must stop early with a
	// non-finite-safe history rather than spinning NaNs for all cycles.
	a := grid.Laplacian7pt(6)
	cfg := smoother.Config{Kind: smoother.WJacobi, Omega: 2.0, Blocks: 1}
	s, err := New(a, testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(a.Rows, 11)
	_, hist := s.Solve(Multadd, b, 500)
	if len(hist) >= 500 {
		last := hist[len(hist)-1]
		if !math.IsInf(last, 1) && !math.IsNaN(last) && last < 1e10 {
			t.Skip("did not diverge with omega=2 on this hierarchy")
		}
		t.Fatal("Solve ran all cycles after divergence")
	}
}

type namedEngine struct {
	name string
	s    *Engine
}

// setupStencil7F32 builds the matrix-free Stencil7 engine with float32
// coarse levels, whose geometric smoothed interpolants are class tables,
// not stored matrices: the configuration PCG runs on at scale.
func setupStencil7F32(t *testing.T, n int) *Engine {
	t.Helper()
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	s, err := NewOperator(op.NewStencil7(n), opt, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.SItp[0].(*op.GeomInterp); !ok {
		t.Fatalf("matrix-free smoothed interpolant is %T, want the class table *op.GeomInterp", s.SItp[0])
	}
	return s
}

// decompositionEngines are the hierarchies the per-grid decomposition is
// checked on: the default assembled 7pt one, the matrix-free Stencil7 +
// float32 one, and a 27pt hierarchy whose coarse operators were
// sparsified after RAP.
func decompositionEngines(t *testing.T) []namedEngine {
	t.Helper()
	spOpt := amg.DefaultOptions()
	spOpt.Sparsify = amg.SparsifyOptions{Theta: 0.25, Mode: sparse.SparsifyLump}
	sp, err := New(grid.Laplacian27pt(16), spOpt, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Setup.DroppedNNZ() == 0 {
		t.Fatal("sparsified hierarchy dropped no coarse entries")
	}
	cases := []namedEngine{
		{"csr-7pt", setup7pt(t, 8, smoother.DefaultConfig())},
		{"stencil7-f32-coarse", setupStencil7F32(t, 12)},
		{"sparsified-27pt", sp},
	}
	for _, tc := range cases {
		// Three levels at least, so a correction crosses more than one
		// interpolant on its way to the finest level.
		if l := tc.s.NumLevels(); l < 3 {
			t.Fatalf("%s: %d levels, want >= 3", tc.name, l)
		}
	}
	return cases
}

// checkDecomposition asserts that one (damped) cycle of method m from x0
// equals x0 plus the sum of the per-grid corrections GridCorrection
// evaluates on the same fine residual: GridCorrection is exactly the
// B_k/C_k decomposition of the cycle, on every configuration and ω.
func checkDecomposition(t *testing.T, m Method, seed int64) {
	for _, tc := range decompositionEngines(t) {
		for _, omega := range []float64{1, 0.8} {
			t.Run(fmt.Sprintf("%s/omega=%g", tc.name, omega), func(t *testing.T) {
				s := tc.s
				n := s.LevelSize(0)
				b := grid.RandomRHS(n, seed)
				x0 := grid.RandomRHS(n, seed+1)

				xCycle := append([]float64(nil), x0...)
				w := s.NewWorkspace()
				if m == Multadd {
					s.additiveCycle(xCycle, b, w, s.SItp, false, omega)
				} else {
					s.afacxCycle(xCycle, b, w, omega)
				}

				rfine := make([]float64, n)
				s.Ops[0].Residual(rfine, b, x0)
				sum := append([]float64(nil), x0...)
				cw := s.NewCorrWorkspace()
				out := make([]float64, n)
				for k := 0; k < s.NumLevels(); k++ {
					s.GridCorrection(m, k, out, rfine, omega, cw)
					vec.Axpy(1, sum, out)
				}
				for i := range sum {
					if math.Abs(sum[i]-xCycle[i]) > 1e-11 {
						t.Fatalf("%v decomposition mismatch at %d: %v vs %v", m, i, sum[i], xCycle[i])
					}
				}
			})
		}
	}
}

func TestGridCorrectionSumsToMultaddCycle(t *testing.T) { checkDecomposition(t, Multadd, 16) }

func TestGridCorrectionSumsToAFACxCycle(t *testing.T) { checkDecomposition(t, AFACx, 18) }

func TestGridCorrectionPanicsOnMult(t *testing.T) {
	s := setup7pt(t, 4, smoother.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := s.LevelSize(0)
	cw := s.NewCorrWorkspace()
	s.GridCorrection(Mult, 0, make([]float64, n), make([]float64, n), 1, cw)
}

func TestMethodStrings(t *testing.T) {
	if Mult.String() != "mult" || Multadd.String() != "multadd" ||
		AFACx.String() != "afacx" || BPX.String() != "bpx" ||
		Method(9).String() != "unknown" {
		t.Error("Method.String broken")
	}
}

func TestCoarseSolveFallbackToSmoothing(t *testing.T) {
	// When the coarse LU is unavailable, CoarseSolve must fall back to one
	// smoothing sweep instead of crashing.
	s := setup7pt(t, 6, smoother.DefaultConfig())
	s.H.Coarse = nil
	l := s.NumLevels()
	nc := s.LevelSize(l - 1)
	e := make([]float64, nc)
	r := grid.RandomRHS(nc, 19)
	s.CoarseSolve(e, r)
	// One Jacobi sweep from zero: e = ω D⁻¹ r.
	d := s.Ops[l-1].Diag()
	for i := range e {
		want := 0.9 * r[i] / d[i]
		if math.Abs(e[i]-want) > 1e-14 {
			t.Fatalf("fallback smoothing wrong at %d", i)
		}
	}
}

func TestL1HybridSmootherWorksInMultigrid(t *testing.T) {
	cfg := smoother.Config{Kind: smoother.L1HybridJGS, Blocks: 8}
	s := setup7pt(t, 8, cfg)
	b := grid.RandomRHS(s.LevelSize(0), 20)
	for _, m := range []Method{Mult, Multadd, AFACx} {
		_, hist := s.Solve(m, b, 200)
		if c := firstBelow(hist, 1e-8); c < 0 {
			t.Errorf("%v with l1-hybrid did not converge: %g", m, hist[len(hist)-1])
		}
	}
}

func TestConvergenceFactorOrdersMethods(t *testing.T) {
	// The asymptotic convergence factors must order as the paper's cycle
	// counts do: Mult < Multadd <= AFACx < 1, and BPX > 1 (divergent
	// over-correction).
	s := setup7pt(t, 8, smoother.DefaultConfig())
	fMult := s.ConvergenceFactor(Mult, 30, 1)
	fMa := s.ConvergenceFactor(Multadd, 30, 1)
	fAf := s.ConvergenceFactor(AFACx, 30, 1)
	fBPX := s.ConvergenceFactor(BPX, 20, 1)
	if !(fMult < 1 && fMa < 1 && fAf < 1) {
		t.Fatalf("solver factors not all < 1: mult=%v multadd=%v afacx=%v", fMult, fMa, fAf)
	}
	if fBPX <= 1 {
		t.Errorf("BPX factor %v <= 1 — over-correction missing", fBPX)
	}
	if fMult > fMa+0.05 {
		t.Errorf("Mult factor %v worse than Multadd %v", fMult, fMa)
	}
	if fMa > fAf+0.05 {
		t.Errorf("Multadd factor %v worse than AFACx %v", fMa, fAf)
	}
	t.Logf("factors: mult=%.3f multadd=%.3f afacx=%.3f bpx=%.3f", fMult, fMa, fAf, fBPX)
}

func TestConvergenceFactorMatchesObservedRate(t *testing.T) {
	// The estimated factor must predict the per-cycle residual reduction
	// of an actual solve to ~15%.
	s := setup7pt(t, 8, smoother.DefaultConfig())
	f := s.ConvergenceFactor(Multadd, 40, 2)
	b := grid.RandomRHS(s.LevelSize(0), 3)
	_, hist := s.Solve(Multadd, b, 40)
	observed := math.Pow(hist[len(hist)-1]/hist[20], 1.0/float64(len(hist)-1-20))
	if math.Abs(f-observed) > 0.15*observed {
		t.Errorf("estimated factor %v vs observed %v", f, observed)
	}
}

// TestSolveCtxCancel checks the ctx plumbing of the synchronous solve
// loop: an expired context stops the solve at a cycle boundary with the
// context's error, and a live one reproduces Solve bit for bit.
func TestSolveCtxCancel(t *testing.T) {
	a := grid.Laplacian7pt(6)
	s, err := New(a, amg.DefaultOptions(), smoother.DefaultConfig())
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	b := grid.RandomRHS(a.Rows, 3)
	refX, refH := s.Solve(Mult, b, 6)
	x, hist, err := s.SolveCtx(context.Background(), Mult, b, 6)
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	for i := range refH {
		if hist[i] != refH[i] {
			t.Fatalf("history[%d] = %v, want %v", i, hist[i], refH[i])
		}
	}
	for i := range refX {
		if x[i] != refX[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], refX[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hist, err = s.SolveCtx(ctx, Mult, b, 6)
	if err != context.Canceled {
		t.Fatalf("cancelled SolveCtx error = %v, want context.Canceled", err)
	}
	if len(hist) != 1 {
		t.Fatalf("cancelled SolveCtx ran %d cycles, want 0", len(hist)-1)
	}
}
