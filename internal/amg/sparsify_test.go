package amg

import (
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

func coarseNNZ(h *Hierarchy) int {
	total := 0
	for k := 1; k < len(h.Levels); k++ {
		total += h.Levels[k].Op.NNZEquivalent()
	}
	return total
}

// TestSparsifyHierarchyReducesCoarseNNZ checks the tentpole effect: with
// the default lump mode at the setup strength threshold, the 27-point
// Laplacian's densified coarse operators shed nonzeros, levels stay
// valid and symmetric, and the stats record the per-level reduction.
func TestSparsifyHierarchyReducesCoarseNNZ(t *testing.T) {
	a := grid.Laplacian7pt(24)
	opt := DefaultOptions()
	golden, _, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sparsify = SparsifyOptions{Theta: 0.25, Mode: sparse.SparsifyLump}
	h, st, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
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
		lvl, _, _ := levelCSR(h.Levels[s.Level])
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
	// The Galerkin chain itself is built unsparsified: interpolants are
	// bitwise-identical to the golden build.
	for k := range golden.Levels {
		_, p, pt := levelCSR(h.Levels[k])
		if _, gp, gpt := levelCSR(golden.Levels[k]); gp != nil {
			csrEq(t, "P", p, gp)
			csrEq(t, "PT", pt, gpt)
		}
	}
}

// TestSparsifyGuardFallsBack pins the guard: lumping at theta = 0.9
// folds nearly all coarse off-diagonal mass into the diagonal, wrecking
// diagonal dominance — the probe convergence factor blows past golden +
// tol, the guard reverts the damaged levels, and the reverted operators
// are bitwise-identical to the golden (unsparsified) build — the
// residual history is restored exactly.
func TestSparsifyGuardFallsBack(t *testing.T) {
	a := grid.Laplacian7pt(24)
	opt := DefaultOptions()
	golden, _, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	aggressive := SparsifyOptions{Theta: 0.9, Mode: sparse.SparsifyLump}

	// Sanity: with the guard disabled, the aggressive settings do strip
	// the coarse operators (otherwise the guard has nothing to revert).
	unguarded := opt
	unguarded.Sparsify = aggressive
	unguarded.Sparsify.GuardTol = -1
	hu, stu, err := BuildWithStats(a, unguarded)
	if err != nil {
		t.Fatal(err)
	}
	if stu.SparsifyFallbacks != 0 {
		t.Fatalf("guard disabled but %d fallbacks recorded", stu.SparsifyFallbacks)
	}
	if coarseNNZ(hu) >= coarseNNZ(golden) {
		t.Fatal("aggressive sparsification removed nothing; guard test is vacuous")
	}

	guarded := opt
	guarded.Sparsify = aggressive
	h, st, err := BuildWithStats(a, guarded)
	if err != nil {
		t.Fatal(err)
	}
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
		a, _, _ := levelCSR(h.Levels[s.Level])
		ga, _, _ := levelCSR(golden.Levels[s.Level])
		csrEq(t, "reverted level A", a, ga)
	}
	if reverted != st.SparsifyFallbacks {
		t.Fatalf("%d reverted level stats, %d fallbacks counted", reverted, st.SparsifyFallbacks)
	}
	// The guarded hierarchy's probe implies at most GuardTol extra
	// iterations over golden.
	gf, sf := probeConvFactor(golden), probeConvFactor(h)
	if infl := iterInflation(sf, gf); infl > 1+aggressive.guardTol() {
		t.Fatalf("guarded probe factor %v vs golden %v implies %.2fx iterations, above 1 + tol", sf, gf, infl)
	}
}

// TestSparsifyGuardKeepsSafeLevels checks the guard is not a blunt
// all-or-nothing switch: under the default lump compensation the probe
// stays within tolerance and nothing is reverted.
func TestSparsifyGuardKeepsSafeLevels(t *testing.T) {
	a := grid.Laplacian7pt(24)
	opt := DefaultOptions()
	opt.Sparsify = SparsifyOptions{Theta: 0.25, Mode: sparse.SparsifyLump}
	_, st, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.SparsifyFallbacks != 0 {
		t.Fatalf("lump-mode sparsification at the setup theta triggered %d fallbacks", st.SparsifyFallbacks)
	}
}

// TestSparsifyMaxLevelGrowthGate checks the density gate: with a huge
// growth bound no level qualifies, and every candidate is skipped.
func TestSparsifyMaxLevelGrowthGate(t *testing.T) {
	a := grid.Laplacian7pt(10)
	opt := DefaultOptions()
	opt.Sparsify = SparsifyOptions{Theta: 0.25, MaxLevelGrowth: 1e6}
	h, st, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.SparsifyLevels {
		if !s.Skipped {
			t.Fatalf("level %d sparsified despite the growth gate", s.Level)
		}
	}
	golden, _, err := BuildWithStats(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coarseNNZ(h), coarseNNZ(golden); got != want {
		t.Fatalf("gated build changed coarse nnz: %d, want %d", got, want)
	}
}

// TestSparsifySetupBitwiseAcrossWorkers extends the repo-wide sharding
// contract to the sparsified setup: every level operator is
// bitwise-identical across worker counts 1, 2 and 8.
func TestSparsifySetupBitwiseAcrossWorkers(t *testing.T) {
	a := grid.Laplacian27pt(8)
	opt := DefaultOptions()
	opt.Sparsify = SparsifyOptions{Theta: 0.25, Mode: sparse.SparsifyLump}

	withSetupWorkers(t, 1)
	ref, _, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par.SetWorkers(workers)
		h, _, err := BuildWithStats(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Levels) != len(ref.Levels) {
			t.Fatalf("workers=%d: %d levels, want %d", workers, len(h.Levels), len(ref.Levels))
		}
		for k := range ref.Levels {
			a, _, _ := levelCSR(h.Levels[k])
			ra, _, _ := levelCSR(ref.Levels[k])
			csrEq(t, "level A", a, ra)
		}
	}
}
