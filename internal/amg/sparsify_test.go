package amg

import (
	"math"
	"testing"

	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
	"asyncmg/internal/sparse/sparsetest"
)

// anisoLaplacian builds the 2-D 5-point anisotropic Laplacian on an n×n
// grid: -1 couplings in x, -eps in y, diagonal 2(1+eps). Symmetric
// positive definite, with a two-magnitude coupling structure so a
// strength threshold between eps and 1 drops exactly the y couplings.
func anisoLaplacian(n int, eps float64) *sparse.CSR {
	c := sparse.NewCOO(n*n, n*n, 5*n*n)
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Add(id(i, j), id(i, j), 2*(1+eps))
			if j > 0 {
				c.Add(id(i, j), id(i, j-1), -1)
			}
			if j < n-1 {
				c.Add(id(i, j), id(i, j+1), -1)
			}
			if i > 0 {
				c.Add(id(i, j), id(i-1, j), -eps)
			}
			if i < n-1 {
				c.Add(id(i, j), id(i+1, j), -eps)
			}
		}
	}
	return c.ToCSR()
}

func rowSums(a *sparse.CSR) []float64 {
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Vals[p]
		}
		out[i] = s
	}
	return out
}

func TestSparsifyStrengthDropsWeakCouplings(t *testing.T) {
	a := anisoLaplacian(8, 0.01)
	s := sparsifyLump(a, 0.5)
	if err := s.Validate(); err != nil {
		t.Fatalf("sparsified matrix invalid: %v", err)
	}
	if s.NNZ() >= a.NNZ() {
		t.Fatalf("no reduction: %d nnz, input %d", s.NNZ(), a.NNZ())
	}
	// Every y coupling (-eps) is weak at theta = 0.5 and must be gone;
	// every x coupling (-1) is the row max and must survive.
	n := 8
	id := func(i, j int) int { return i*n + j }
	if v := sparsetest.At(s, id(3, 3), id(2, 3)); v != 0 {
		t.Fatalf("weak y coupling survived: %v", v)
	}
	if v := sparsetest.At(s, id(3, 3), id(3, 2)); v != -1 {
		t.Fatalf("strong x coupling altered: %v", v)
	}
	// Lumping folds the dropped -eps pair into the diagonal.
	if v := sparsetest.At(s, id(3, 3), id(3, 3)); math.Abs(v-2.0) > 1e-15 {
		t.Fatalf("interior diagonal after lumping = %v, want 2", v)
	}
}

func TestSparsifyLumpPreservesRowSumsAndSymmetry(t *testing.T) {
	a := anisoLaplacian(9, 0.02)
	s := sparsifyLump(a, 0.5)
	want := rowSums(a)
	got := rowSums(s)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-13 {
			t.Fatalf("row %d sum %v, want %v", i, got[i], want[i])
		}
	}
	if !sparsetest.IsSymmetric(s, 0) {
		t.Fatal("lumped sparsified matrix lost symmetry")
	}
	for i, d := range s.Diag() {
		if d <= 0 {
			t.Fatalf("row %d diagonal %v after lumping, want > 0", i, d)
		}
	}
}

// TestSparsifyAbsFallbackRow exercises the non-M-matrix path: a row whose
// off-diagonal entries are all positive uses the |a_ij| measure.
func TestSparsifyAbsFallbackRow(t *testing.T) {
	c := sparse.NewCOO(3, 3, 9)
	c.Add(0, 0, 4)
	c.Add(0, 1, 2)
	c.Add(0, 2, 0.01)
	c.Add(1, 0, 2)
	c.Add(1, 1, 4)
	c.Add(1, 2, 2)
	c.Add(2, 0, 0.01)
	c.Add(2, 1, 2)
	c.Add(2, 2, 4)
	a := c.ToCSR()
	s := sparsifyLump(a, 0.5)
	if v := sparsetest.At(s, 0, 2); v != 0 {
		t.Fatalf("weak positive coupling survived: %v", v)
	}
	if v := sparsetest.At(s, 0, 1); v != 2 {
		t.Fatalf("strong positive coupling altered: %v", v)
	}
	if v := sparsetest.At(s, 0, 0); v != 4.01 {
		t.Fatalf("diagonal after lumping = %v, want 4.01", v)
	}
}

// TestSparsifyKeepsRowsWithoutDiagonal pins the safety rule: a row with
// no stored diagonal cannot absorb lumped mass and is copied verbatim.
func TestSparsifyKeepsRowsWithoutDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2, 4)
	c.Add(0, 1, 1e-9)
	c.Add(1, 0, 1e-9)
	c.Add(1, 1, 5)
	a := c.ToCSR()
	s := sparsifyLump(a, 0.9)
	if v := sparsetest.At(s, 0, 1); v != 1e-9 {
		t.Fatalf("row without diagonal was sparsified: entry %v, want 1e-9", v)
	}
	if v := sparsetest.At(s, 1, 0); v != 1e-9 {
		t.Fatalf("symmetric partner of a diagonal-free row dropped: %v", v)
	}
}

// TestSparsifyThetaZeroClones: at theta 0 no negative coupling is weak,
// so an M-matrix comes back entry for entry.
func TestSparsifyThetaZeroClones(t *testing.T) {
	a := anisoLaplacian(5, 0.1)
	csrEq(t, "theta 0", sparsifyLump(a, 0), a)
}

// TestSparsifyWorkerCountBitwise is the repo-wide sharding contract:
// the sparsified matrix is bitwise-identical at worker counts 1, 2, 8.
func TestSparsifyWorkerCountBitwise(t *testing.T) {
	a := anisoLaplacian(11, 0.015)
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})

	par.SetWorkers(1)
	ref := sparsifyLump(a, 0.5)
	for _, workers := range []int{1, 2, 8} {
		par.SetWorkers(workers)
		csrEq(t, "sparsified", sparsifyLump(a, 0.5), ref)
	}
}

func coarseNNZ(h *Hierarchy) int {
	total := 0
	for k := 1; k < len(h.Levels); k++ {
		total += h.Levels[k].Op.NNZEquivalent()
	}
	return total
}

// TestSparsifyHierarchyReducesCoarseNNZ checks the effect: lumped at the
// setup strength threshold, the 7-point Laplacian's densified coarse
// operators shed nonzeros, levels stay valid and symmetric, each kept
// twin's A·P is re-formed as twin·P, and the stats record the per-level
// reduction.
func TestSparsifyHierarchyReducesCoarseNNZ(t *testing.T) {
	a := grid.Laplacian7pt(24)
	opt := DefaultOptions()
	golden, _, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sparsify = true
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
	checkLevelAPs(t, "sparsified", h)
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
// and their A·P are bitwise-identical to the golden (unsparsified) build —
// the residual history is restored exactly.
func TestSparsifyGuardFallsBack(t *testing.T) {
	a := grid.Laplacian7pt(24)
	golden, _, err := BuildWithStats(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const aggressive = 0.9

	// Sanity: unguarded, the aggressive threshold does strip the interior
	// coarse operators (otherwise the guard has nothing to revert).
	for k := 1; k < len(golden.Levels)-1; k++ {
		ga, _, _ := levelCSR(golden.Levels[k])
		if sparsifyLump(ga, aggressive).NNZ() >= ga.NNZ() {
			t.Fatalf("level %d: theta=%v removed nothing; guard test is vacuous", k, aggressive)
		}
	}

	h, _, err := BuildWithStats(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := &SetupStats{}
	sparsifyHierarchy(h, aggressive, st)
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
		csrEq(t, "reverted level A·P", h.Levels[s.Level].AP, golden.Levels[s.Level].AP)
	}
	checkLevelAPs(t, "guarded", h)
	if reverted != st.SparsifyFallbacks {
		t.Fatalf("%d reverted level stats, %d fallbacks counted", reverted, st.SparsifyFallbacks)
	}
	// The guarded hierarchy's probe implies at most guardTol extra
	// iterations over golden.
	gf, sf := probeConvFactor(golden), probeConvFactor(h)
	if infl := iterInflation(sf, gf); infl > 1+guardTol {
		t.Fatalf("guarded probe factor %v vs golden %v implies %.2fx iterations, above 1 + tol", sf, gf, infl)
	}
}

// TestSparsifyGuardKeepsSafeLevels checks the guard is not a blunt
// all-or-nothing switch: lumped at the setup theta the probe stays within
// tolerance and nothing is reverted.
func TestSparsifyGuardKeepsSafeLevels(t *testing.T) {
	a := grid.Laplacian7pt(24)
	opt := DefaultOptions()
	opt.Sparsify = true
	_, st, err := BuildWithStats(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.SparsifyFallbacks != 0 {
		t.Fatalf("lump-mode sparsification at the setup theta triggered %d fallbacks", st.SparsifyFallbacks)
	}
}

// TestSparsifySetupBitwiseAcrossWorkers extends the repo-wide sharding
// contract to the sparsified setup: every level operator is
// bitwise-identical across worker counts 1, 2 and 8.
func TestSparsifySetupBitwiseAcrossWorkers(t *testing.T) {
	a := grid.Laplacian27pt(8)
	opt := DefaultOptions()
	opt.Sparsify = true

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

// TestSparsifyStencilLevelStats pins the stats of a stencil hierarchy:
// only the algebraic tail below the geometric levels is sparsified, and
// every stat names a whole-hierarchy level that is CSR-backed and holds
// the stat's nonzero count.
func TestSparsifyStencilLevelStats(t *testing.T) {
	opt := DefaultOptions()
	opt.Sparsify = true
	for _, fine := range []*op.Stencil{op.NewStencil7(64), op.NewStencil27(34)} {
		h, st, err := BuildOperatorWithStats(fine, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.DroppedNNZ() == 0 {
			t.Fatalf("%d rows: nothing dropped; the check is vacuous", fine.Rows())
		}
		for _, s := range st.SparsifyLevels {
			a := op.AsCSR(h.Levels[s.Level].Op)
			if a == nil {
				t.Fatalf("%d rows: stat names level %d, a stencil level (sizes %v)", fine.Rows(), s.Level, h.GridSizes())
			}
			if a.NNZ() != s.NNZAfter {
				t.Fatalf("%d rows: level %d has %d nnz, stat says %d", fine.Rows(), s.Level, a.NNZ(), s.NNZAfter)
			}
		}
	}
}
