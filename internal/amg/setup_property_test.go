package amg

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// withSetupWorkers swaps the shared kernel pool to the given size and
// lowers the dispatch threshold so test-sized setups take the sharded
// path, restoring both on cleanup.
func withSetupWorkers(t *testing.T, workers int) {
	t.Helper()
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	par.SetWorkers(workers)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})
}

func csrEq(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d, want %dx%d/%d",
			name, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range want.Vals {
		if got.ColIdx[p] != want.ColIdx[p] || got.Vals[p] != want.Vals[p] {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v) — not bitwise-identical",
				name, p, got.ColIdx[p], got.Vals[p], want.ColIdx[p], want.Vals[p])
		}
	}
}

func elasticityMatrix(t *testing.T) *sparse.CSR {
	t.Helper()
	prob, err := fem.AssembleElasticity(fem.BeamMesh(3), fem.DefaultBeamMaterials())
	if err != nil {
		t.Fatalf("assemble elasticity: %v", err)
	}
	return prob.A
}

// TestStrengthAndInterpBitwiseAcrossWorkers checks that the sharded
// strength-graph and interpolation kernels reproduce the serial rows
// bit for bit across worker counts 1, 2 and 8.
func TestStrengthAndInterpBitwiseAcrossWorkers(t *testing.T) {
	a := grid.Laplacian27pt(8)

	// Serial references under a one-worker pool.
	par.SetWorkers(1)
	sRef := StrengthGraph(a, 0.25)
	types := Coarsen(sRef, HMIS, 7)
	pDirect := BuildInterpolation(a, sRef, types, Direct)
	pClassical := BuildInterpolation(a, sRef, types, ClassicalModified)
	typesAgg := CoarsenAggressive(sRef, HMIS, 7)
	pMulti := BuildInterpolation(a, sRef, typesAgg, Multipass)
	par.SetWorkers(0)

	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
			withSetupWorkers(t, workers)
			s := StrengthGraph(a, 0.25)
			if s.NNZ() != sRef.NNZ() {
				t.Fatalf("strength nnz %d, want %d", s.NNZ(), sRef.NNZ())
			}
			for i := range sRef.Rows {
				if len(s.Rows[i]) != len(sRef.Rows[i]) {
					t.Fatalf("strength row %d: %d neighbours, want %d", i, len(s.Rows[i]), len(sRef.Rows[i]))
				}
				for z := range sRef.Rows[i] {
					if s.Rows[i][z] != sRef.Rows[i][z] {
						t.Fatalf("strength row %d entry %d: %d, want %d", i, z, s.Rows[i][z], sRef.Rows[i][z])
					}
				}
			}
			csrEq(t, "direct", BuildInterpolation(a, s, types, Direct), pDirect)
			csrEq(t, "classical-modified", BuildInterpolation(a, s, types, ClassicalModified), pClassical)
			csrEq(t, "multipass", BuildInterpolation(a, s, typesAgg, Multipass), pMulti)
		})
	}
}

// TestBuildDeterministicAcrossWorkers is the end-to-end setup
// determinism contract: Build on the 7pt stencil and on FEM elasticity
// (unknown approach, NumFunctions=3) produces identical hierarchies —
// operators, interpolants, cached transposes and C/F splittings — with
// the parallel kernels on and off.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	elOpt := DefaultOptions()
	elOpt.NumFunctions = 3
	elOpt.AggressiveLevels = 0
	cases := []struct {
		name string
		a    *sparse.CSR
		opt  Options
	}{
		{"7pt", grid.Laplacian7pt(10), DefaultOptions()},
		{"elasticity", elasticityMatrix(t), elOpt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par.SetWorkers(1)
			ref, err := Build(tc.a, tc.opt)
			par.SetWorkers(0)
			if err != nil {
				t.Fatalf("serial Build: %v", err)
			}
			for _, workers := range []int{2, 8} {
				t.Run(map[int]string{2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
					withSetupWorkers(t, workers)
					h, err := Build(tc.a, tc.opt)
					if err != nil {
						t.Fatalf("parallel Build: %v", err)
					}
					if h.NumLevels() != ref.NumLevels() {
						t.Fatalf("levels %d, want %d", h.NumLevels(), ref.NumLevels())
					}
					for k := range ref.Levels {
						lv, lw := h.Levels[k], ref.Levels[k]
						csrEq(t, "A", lv.A, lw.A)
						if (lv.P == nil) != (lw.P == nil) {
							t.Fatalf("level %d P nil mismatch", k)
						}
						if lw.P != nil {
							csrEq(t, "P", lv.P, lw.P)
							csrEq(t, "PT", lv.PT, lw.PT)
						}
						if len(lv.Types) != len(lw.Types) {
							t.Fatalf("level %d Types length %d, want %d", k, len(lv.Types), len(lw.Types))
						}
						for i := range lw.Types {
							if lv.Types[i] != lw.Types[i] {
								t.Fatalf("level %d C/F split differs at %d: %v vs %v", k, i, lv.Types[i], lw.Types[i])
							}
						}
					}
				})
			}
		})
	}
}

// TestLevelPTMatchesTranspose pins the cached-transpose satellite: every
// non-coarsest level of a built hierarchy carries PT, and it equals
// P.Transpose() bit for bit.
func TestLevelPTMatchesTranspose(t *testing.T) {
	h, err := Build(grid.Laplacian7pt(8), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k, lv := range h.Levels {
		if lv.P == nil {
			if lv.PT != nil {
				t.Fatalf("level %d has PT without P", k)
			}
			continue
		}
		if lv.PT == nil {
			t.Fatalf("level %d missing cached PT", k)
		}
		csrEq(t, "PT", lv.PT, lv.P.Transpose())
	}
}

// TestBuildAllocBudget keeps the setup's containers flat: a Build makes a
// bounded number of allocations however many rows it is given. The budget
// is a few times the 650-1 400 the array-based setup makes and far under
// one allocation per row (4 096 at n=16, 32 768 at n=32), which is what a
// per-row slice or map anywhere in strength, coarsening, interpolation or
// RAP costs: the map-based interpolation made 95 000.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design; pooled scratch is re-allocated at random")
	}
	const budget = 2000
	// A collection inside AllocsPerRun empties the kernels' scratch pools
	// and charges their re-allocation to the Build being measured, so
	// collect between the measurements only.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := DefaultOptions()
	opt.AggressiveLevels = 1
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"7pt n=16", grid.Laplacian7pt(16)},
		{"27pt n=16", grid.Laplacian27pt(16)},
		{"7pt n=32", grid.Laplacian7pt(32)},
		{"27pt n=32", grid.Laplacian27pt(32)},
	} {
		for _, workers := range []int{1, 8} {
			withSetupWorkers(t, workers)
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Build(tc.a, opt); err != nil {
					t.Fatal(err)
				}
			})
			runtime.GC()
			if allocs > budget {
				t.Errorf("%s, %d workers: Build made %.0f allocations, budget %d", tc.name, workers, allocs, budget)
			}
		}
	}
}

// TestMultipassStagedPeakBounded is the memory guard of the aggressive
// level, kept in counts rather than bytes: the later multipass passes hold
// at most half as many untruncated composed entries at once as A₀ has.
// Kept until the end, as they once were, the composed rows came to 5-13
// times nnz(A₀) on these problems.
func TestMultipassStagedPeakBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"7pt n=32", grid.Laplacian7pt(32)},
		{"7pt n=36", grid.Laplacian7pt(36)},
		{"27pt n=32", grid.Laplacian27pt(32)},
	} {
		_, st, err := BuildWithStats(tc.a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if st.StagedPeak == 0 {
			t.Fatalf("%s: no multipass row was composed", tc.name)
		}
		if 2*st.StagedPeak > tc.a.NNZ() {
			t.Errorf("%s: %d untruncated composed entries at once, over half of nnz(A0) = %d", tc.name, st.StagedPeak, tc.a.NNZ())
		}
	}
}
