package engine

import (
	"fmt"
	"slices"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

// paperSmoother is the paper's smoother for a problem family: ω-Jacobi at
// problem.DefaultOmega.
func paperSmoother(name string) smoother.Config {
	return smoother.Config{Kind: smoother.WJacobi, Omega: problem.DefaultOmega(name), Blocks: 1}
}

// buildSparsified runs the plain setup on a and then the guard at theta,
// probing with smo.
func buildSparsified(t *testing.T, a op.Operator, opt amg.Options, theta float64, smo smoother.Config) (*amg.Hierarchy, *amg.SetupStats) {
	t.Helper()
	h, st, err := amg.BuildOperatorWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparsifyHierarchy(h, theta, smo, st); err != nil {
		t.Fatal(err)
	}
	return h, st
}

// checkLevelAPs holds every algebraic level's A·P bitwise to
// MatMul(A_k, P_k), A_k the level's operator: the twin where a twin was
// kept, the Galerkin operator where it was reverted.
func checkLevelAPs(t *testing.T, name string, h *amg.Hierarchy) {
	t.Helper()
	for k, lev := range h.Levels {
		itp, ok := lev.Itp.(*op.CSRInterp[float64, uint32])
		a := op.AsCSR(lev.Op)
		if !ok || a == nil {
			continue
		}
		if !sameCSRBits(lev.AP, sparse.MatMul(a, itp.P)) {
			t.Fatalf("%s: level %d A·P is not MatMul(A, P) of its operator", name, k)
		}
	}
}

func coarseNNZ(h *amg.Hierarchy) int {
	total := 0
	for k := 1; k < len(h.Levels); k++ {
		total += h.Levels[k].Op.NNZEquivalent()
	}
	return total
}

// TestSparsifyHierarchyReducesCoarseNNZ checks the effect: lumped at the
// setup strength threshold, the 7-point Laplacian's densified coarse
// operators shed nonzeros, levels stay valid and symmetric, each kept
// twin carries twin·P as its A·P, and the stats record the per-level
// reduction.
func TestSparsifyHierarchyReducesCoarseNNZ(t *testing.T) {
	a := op.FromCSR(grid.Laplacian7pt(24))
	golden, _, err := amg.BuildOperatorWithStats(a, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, st := buildSparsified(t, a, amg.DefaultOptions(), amg.Theta, paperSmoother(problem.Laplace7pt))
	if len(st.SparsifyLevels) == 0 {
		t.Fatal("no sparsify level stats recorded")
	}
	if got, want := coarseNNZ(h), coarseNNZ(golden); got >= want {
		t.Fatalf("coarse nnz %d, want < unsparsified %d", got, want)
	}
	if st.DroppedNNZ() == 0 {
		t.Fatal("stats report zero dropped nonzeros")
	}
	for _, s := range st.SparsifyLevels {
		lvl := op.AsCSR(h.Levels[s.Level].Op)
		if err := lvl.Validate(); err != nil {
			t.Fatalf("level %d invalid after sparsification: %v", s.Level, err)
		}
		if !s.Skipped && !s.Reverted {
			if lvl.NNZ() != s.NNZAfter {
				t.Fatalf("level %d nnz %d, stats say %d", s.Level, lvl.NNZ(), s.NNZAfter)
			}
			if !sparsetest.IsSymmetric(lvl, 1e-12) {
				t.Fatalf("level %d lost symmetry under lumped sparsification", s.Level)
			}
		}
	}
	checkLevelAPs(t, "sparsified", h)
	// The Galerkin chain itself is built unsparsified: interpolants are
	// the golden build's.
	for k := range golden.Levels {
		if gp, ok := golden.Levels[k].Itp.(*op.CSRInterp[float64, int]); ok {
			p := h.Levels[k].Itp.(*op.CSRInterp[float64, int])
			if !sameCSRBits(p.P, gp.P) || !sameCSRBits(p.PT, gp.PT) {
				t.Fatalf("level %d interpolant differs from the unsparsified build", k)
			}
		}
	}
}

// TestSparsifyGuardFallsBack pins the guard: lumping at theta = 0.9
// folds nearly all coarse off-diagonal mass into the diagonal, wrecking
// diagonal dominance — the probe's Mult factor implies more than one
// extra cycle, the guard reverts the damaged levels, and the reverted
// operators and their A·P are bitwise the golden (unsparsified) build's.
func TestSparsifyGuardFallsBack(t *testing.T) {
	a := op.FromCSR(grid.Laplacian7pt(24))
	golden, _, err := amg.BuildOperatorWithStats(a, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const aggressive = 0.9

	// Sanity: unguarded, the aggressive threshold does strip the interior
	// coarse operators (otherwise the guard has nothing to revert).
	for k := 1; k < len(golden.Levels)-1; k++ {
		ga := op.AsCSR(golden.Levels[k].Op)
		if amg.SparsifyLump(ga, aggressive).NNZ() >= ga.NNZ() {
			t.Fatalf("level %d: theta=%v removed nothing; guard test is vacuous", k, aggressive)
		}
	}

	smo := paperSmoother(problem.Laplace7pt)
	h, st := buildSparsified(t, a, amg.DefaultOptions(), aggressive, smo)
	if st.SparsifyFallbacks == 0 {
		t.Fatal("guard never fell back under theta=0.9 lumping")
	}
	reverted := 0
	for _, s := range st.SparsifyLevels {
		if !s.Reverted {
			continue
		}
		reverted++
		if s.NNZAfter != s.NNZBefore {
			t.Fatalf("reverted level %d reports nnz %d != before %d", s.Level, s.NNZAfter, s.NNZBefore)
		}
		if !sameCSRBits(op.AsCSR(h.Levels[s.Level].Op), op.AsCSR(golden.Levels[s.Level].Op)) {
			t.Fatalf("reverted level %d operator differs from the golden one", s.Level)
		}
		if !sameCSRBits(h.Levels[s.Level].AP, golden.Levels[s.Level].AP) {
			t.Fatalf("reverted level %d A·P differs from the golden one", s.Level)
		}
	}
	checkLevelAPs(t, "guarded", h)
	if reverted != st.SparsifyFallbacks {
		t.Fatalf("%d reverted level stats, %d fallbacks counted", reverted, st.SparsifyFallbacks)
	}
	// The guarded hierarchy's probe costs at most one extra cycle.
	factor := func(h *amg.Hierarchy) float64 {
		s, err := NewFromHierarchy(h, smo)
		if err != nil {
			t.Fatal(err)
		}
		return s.ConvergenceFactor(Mult, guardCycles, 1)
	}
	if gf, sf := factor(golden), factor(h); extraCycles(sf, gf) > 1 {
		t.Fatalf("guarded probe factor %v vs golden %v implies %.2f extra cycles", sf, gf, extraCycles(sf, gf))
	}
}

// TestSparsifyGuardKeepsSafeLevels checks the guard is not a blunt
// all-or-nothing switch: lumped at the setup theta the probe stays within
// bound and New reverts nothing.
func TestSparsifyGuardKeepsSafeLevels(t *testing.T) {
	opt := amg.DefaultOptions()
	opt.Sparsify = true
	s, err := New(grid.Laplacian7pt(24), opt, smoother.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Setup.SparsifyFallbacks != 0 || s.Setup.DroppedNNZ() == 0 {
		t.Fatalf("sparsification at the setup theta: %d fallbacks, %d dropped", s.Setup.SparsifyFallbacks, s.Setup.DroppedNNZ())
	}
}

// TestSparsifySetupBitwiseAcrossWorkers extends the repo-wide sharding
// contract to the sparsified setup: every level operator New leaves is
// bitwise-identical across worker counts 1, 2 and 8. At n = 16 the 27pt
// hierarchy has three levels, so one coarse operator is sparsified (at
// n = 8 it has two and none is).
func TestSparsifySetupBitwiseAcrossWorkers(t *testing.T) {
	a := grid.Laplacian27pt(16)
	opt := amg.DefaultOptions()
	opt.Sparsify = true
	build := func(workers int) *Engine {
		withEngineWorkers(t, workers)
		s, err := New(a, opt, smoother.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := build(1)
	if ref.Setup.DroppedNNZ() == 0 {
		t.Fatal("nothing sparsified; the check is vacuous")
	}
	for _, workers := range []int{2, 8} {
		s := build(workers)
		if s.NumLevels() != ref.NumLevels() {
			t.Fatalf("workers=%d: %d levels, want %d", workers, s.NumLevels(), ref.NumLevels())
		}
		for k := range ref.H.Levels {
			if !sameCSRBits(op.AsCSR(s.H.Levels[k].Op), op.AsCSR(ref.H.Levels[k].Op)) {
				t.Fatalf("workers=%d: level %d operator differs", workers, k)
			}
		}
	}
}

// TestSparsifyStencilLevelStats pins the stats of a stencil hierarchy:
// only the algebraic tail below the geometric levels is sparsified, and
// every stat names a whole-hierarchy level that is CSR-backed and holds
// the stat's nonzero count.
func TestSparsifyStencilLevelStats(t *testing.T) {
	opt := amg.DefaultOptions()
	opt.Sparsify = true
	for _, fine := range []*op.Stencil{op.NewStencil7(64), op.NewStencil27(34)} {
		s, err := NewOperator(fine, opt, smoother.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if s.Setup.DroppedNNZ() == 0 {
			t.Fatalf("%d rows: nothing dropped; the check is vacuous", fine.Rows())
		}
		for _, l := range s.Setup.SparsifyLevels {
			a := op.AsCSR(s.H.Levels[l.Level].Op)
			if a == nil {
				t.Fatalf("%d rows: stat names level %d, a stencil level (sizes %v)", fine.Rows(), l.Level, s.H.GridSizes())
			}
			if a.NNZ() != l.NNZAfter {
				t.Fatalf("%d rows: level %d has %d nnz, stat says %d", fine.Rows(), l.Level, a.NNZ(), l.NNZAfter)
			}
		}
	}
}

// TestSparsifyGuardDecisions pins the guard's per-level decisions on the
// four paper matrices, two larger assembled grids, the algebraic tails of
// three matrix-free hierarchies and the θ = 0.9 lumping of
// TestSparsifyGuardFallsBack, at 1, 2 and 8 workers, with every level
// operator bitwise the one-worker build's. A change to the probe's cycle
// that flips a decision shows here. Each case probes with its problem's
// ω-Jacobi, the smoother its engine runs. The closest call is
// matrix-free 7pt n = 64, whose kept L3 and L4 cost +0.026 cycles against
// the bound's 1; elasticity's L2 alone costs +10.3.
func TestSparsifyGuardDecisions(t *testing.T) {
	cases := []struct {
		problem    string
		size       int
		matrixFree bool
		theta      float64
		want       []string
	}{
		{problem.Laplace7pt, 16, false, amg.Theta, []string{"1 kept", "2 kept"}},
		{problem.Laplace27pt, 16, false, amg.Theta, []string{"1 kept"}},
		{problem.LaplaceFEM, 16, false, amg.Theta, []string{"1 kept", "2 kept"}},
		{problem.Elasticity, 5, false, amg.Theta, []string{"1 reverted", "2 reverted"}},
		{problem.Laplace7pt, 24, false, amg.Theta, []string{"1 kept", "2 kept"}},
		{problem.Laplace27pt, 32, false, amg.Theta, []string{"1 kept", "2 kept"}},
		{problem.Laplace7pt, 34, true, amg.Theta, []string{"3 kept"}},
		{problem.Laplace27pt, 34, true, amg.Theta, []string{"3 kept"}},
		{problem.Laplace7pt, 64, true, amg.Theta, []string{"3 kept", "4 kept"}},
		{problem.Laplace7pt, 24, false, 0.9, []string{"1 reverted", "2 reverted"}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-n%d-mf=%v-theta=%v", tc.problem, tc.size, tc.matrixFree, tc.theta)
		t.Run(name, func(t *testing.T) {
			if raceEnabled && tc.size > 24 {
				t.Skip("large setup under -race")
			}
			var a op.Operator
			if tc.matrixFree {
				a, _ = problem.Operator(tc.problem, tc.size)
			} else {
				m, err := problem.Build(tc.problem, tc.size)
				if err != nil {
					t.Fatal(err)
				}
				a = op.FromCSR(m)
			}
			opt := problem.Options(tc.problem, amg.DefaultOptions())
			var ref *amg.Hierarchy
			for _, workers := range []int{1, 2, 8} {
				withEngineWorkers(t, workers)
				h, st := buildSparsified(t, a, opt, tc.theta, paperSmoother(tc.problem))
				var got []string
				for _, l := range st.SparsifyLevels {
					d := "kept"
					switch {
					case l.Skipped:
						d = "skipped"
					case l.Reverted:
						d = "reverted"
					}
					got = append(got, fmt.Sprintf("%d %s", l.Level, d))
				}
				if !slices.Equal(got, tc.want) {
					t.Fatalf("workers=%d: decisions %q, want %q", workers, got, tc.want)
				}
				if ref == nil {
					ref = h
					continue
				}
				for k := range ref.Levels {
					if m := op.AsCSR(ref.Levels[k].Op); m != nil && !sameCSRBits(op.AsCSR(h.Levels[k].Op), m) {
						t.Fatalf("workers=%d: level %d operator differs from one worker's", workers, k)
					}
				}
			}
		})
	}
}
