package engine

import (
	"fmt"
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

func testOptions() amg.Options {
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = 0
	opt.Interp = amg.ClassicalModified
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

func TestSetupStructure(t *testing.T) {
	s := setup7pt(t, 8, smoother.DefaultConfig())
	l := s.NumLevels()
	if l < 2 {
		t.Fatalf("levels = %d", l)
	}
	if len(s.P) != l-1 || len(s.PBar) != l-1 {
		t.Fatalf("interpolant slices wrong length")
	}
	for k := 0; k < l-1; k++ {
		if s.P[k].Rows != s.LevelSize(k) || s.P[k].Cols != s.LevelSize(k+1) {
			t.Errorf("P[%d] shape %dx%d, levels %d/%d", k, s.P[k].Rows, s.P[k].Cols, s.LevelSize(k), s.LevelSize(k+1))
		}
		if s.PBar[k].Rows != s.P[k].Rows || s.PBar[k].Cols != s.P[k].Cols {
			t.Errorf("PBar[%d] shape mismatch", k)
		}
		// PBar should be denser than P (it includes A·P fill).
		if s.PBar[k].NNZ() < s.P[k].NNZ() {
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
	p := s.P[0]
	d := a.Diag()
	ap := sparse.MatMul(a, p)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := p.At(i, j) - 0.9/d[i]*ap.At(i, j)
			if math.Abs(s.PBar[0].At(i, j)-want) > 1e-12 {
				t.Fatalf("PBar(%d,%d) = %v, want %v", i, j, s.PBar[0].At(i, j), want)
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
	s.PBarT[0].MatVec(rc, b)
	ec := make([]float64, s.LevelSize(1))
	s.CoarseSolve(ec, rc)
	fine := make([]float64, n)
	s.PBar[0].MatVec(fine, ec)
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
	s.PT[0].MatVec(r1, r0)
	e1s := make([]float64, s.LevelSize(1))
	s.Smo[1].Apply(e1s, r1)
	pe := make([]float64, n)
	s.P[0].MatVec(pe, e1s)
	mod := make([]float64, n)
	s.H.Levels[0].A.Residual(mod, r0, pe)
	e0tilde := make([]float64, n)
	s.Smo[0].Apply(e0tilde, mod)
	e0 := make([]float64, n)
	vec.Add(e0, pe, e0tilde)
	want := make([]float64, n)
	for i := range want {
		want[i] = e0[i] - pe[i] // grid 0 contribution
	}
	ec := make([]float64, s.LevelSize(1))
	s.CoarseSolve(ec, r1)
	pec := make([]float64, n)
	s.P[0].MatVec(pec, ec)
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

func TestAFACxSweepsDefaultEqualsV11(t *testing.T) {
	// AFACxCycleSweeps(1,1) must be exactly AFACxCycle.
	s := setup7pt(t, 6, smoother.DefaultConfig())
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 13)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	w1, w2 := s.NewWorkspace(), s.NewWorkspace()
	s.AFACxCycle(x1, b, w1)
	s.AFACxCycleSweeps(x2, b, w2, 1, 1)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("V(1/1,0) mismatch at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestAFACxMoreSweepsConvergeFasterPerCycle(t *testing.T) {
	// V(2/2,0) must reach a smaller residual than V(1/1,0) in the same
	// number of cycles.
	s := setup7pt(t, 8, smoother.DefaultConfig())
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 14)
	run := func(s1, s2 int) float64 {
		x := make([]float64, n)
		w := s.NewWorkspace()
		r := make([]float64, n)
		for c := 0; c < 30; c++ {
			s.AFACxCycleSweeps(x, b, w, s1, s2)
		}
		s.H.Levels[0].A.Residual(r, b, x)
		return vec.Norm2(r) / vec.Norm2(b)
	}
	v11 := run(1, 1)
	v22 := run(2, 2)
	if v22 >= v11 {
		t.Errorf("V(2/2,0) relres %g not better than V(1/1,0) %g", v22, v11)
	}
}

func TestAFACxSweepsPanicOnBadCounts(t *testing.T) {
	s := setup7pt(t, 4, smoother.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := s.NewWorkspace()
	n := s.LevelSize(0)
	s.AFACxCycleSweeps(make([]float64, n), make([]float64, n), w, 0, 1)
}

func TestSawtoothCycleConverges(t *testing.T) {
	// The sawtooth V(0,1)-cycle (chaotic-cycle building block of Hawkes et
	// al., the paper's reference [11]) must converge, typically a little
	// slower per cycle than the V(1,1)-cycle.
	s := setup7pt(t, 8, smoother.DefaultConfig())
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 15)
	x := make([]float64, n)
	w := s.NewWorkspace()
	r := make([]float64, n)
	var prev float64 = math.Inf(1)
	for c := 0; c < 60; c++ {
		s.MultCycleSweeps(x, b, w, 0, 1)
	}
	s.H.Levels[0].A.Residual(r, b, x)
	got := vec.Norm2(r) / vec.Norm2(b)
	if got > 1e-8 {
		t.Errorf("sawtooth relres %g after 60 cycles", got)
	}
	_ = prev
	// V(1,1) should be at least as good in the same cycles.
	x11 := make([]float64, n)
	for c := 0; c < 60; c++ {
		s.MultCycle(x11, b, w)
	}
	s.H.Levels[0].A.Residual(r, b, x11)
	v11 := vec.Norm2(r) / vec.Norm2(b)
	if v11 > got*10 {
		t.Errorf("V(1,1) (%g) much worse than sawtooth (%g)?", v11, got)
	}
}

type namedEngine struct {
	name string
	s    *Engine
}

// setupStencil7F32 builds the matrix-free Stencil7 engine with float32
// coarse levels, whose smoothed interpolants are composed, not stored: the
// configuration PCG runs on at scale.
func setupStencil7F32(t *testing.T, n int) *Engine {
	t.Helper()
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	s, err := NewOperator(op.NewStencil7(n), opt, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.SItp[0].(*op.SmoothedInterp); !ok {
		t.Fatalf("matrix-free smoothed interpolant is %T, want *op.SmoothedInterp", s.SItp[0])
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
					s.afacxCycle(xCycle, b, w, 1, 1, omega)
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
	d := s.H.Levels[l-1].A.Diag()
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

func TestMultCycleSweepsDefaultEqualsV11(t *testing.T) {
	s := setup7pt(t, 6, smoother.DefaultConfig())
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 23)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	w1, w2 := s.NewWorkspace(), s.NewWorkspace()
	s.MultCycle(x1, b, w1)
	s.MultCycleSweeps(x2, b, w2, 1, 1)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("V(1,1) mismatch at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestMultCycleSweepsMoreIsBetter(t *testing.T) {
	s := setup7pt(t, 8, smoother.DefaultConfig())
	n := s.LevelSize(0)
	b := grid.RandomRHS(n, 24)
	run := func(s1, s2 int) float64 {
		x := make([]float64, n)
		w := s.NewWorkspace()
		r := make([]float64, n)
		for c := 0; c < 15; c++ {
			s.MultCycleSweeps(x, b, w, s1, s2)
		}
		s.H.Levels[0].A.Residual(r, b, x)
		return vec.Norm2(r) / vec.Norm2(b)
	}
	v11, v22 := run(1, 1), run(2, 2)
	if v22 >= v11 {
		t.Errorf("V(2,2) relres %g not better than V(1,1) %g", v22, v11)
	}
	// Sawtooth V(0,1) converges too, a bit slower.
	v01 := run(0, 1)
	if v01 > 1e-2 {
		t.Errorf("V(0,1) relres %g — sawtooth broken", v01)
	}
}

func TestMultCycleSweepsPanicsOnZeroZero(t *testing.T) {
	s := setup7pt(t, 4, smoother.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := s.NewWorkspace()
	n := s.LevelSize(0)
	s.MultCycleSweeps(make([]float64, n), make([]float64, n), w, 0, 0)
}
