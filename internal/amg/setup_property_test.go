package amg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
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

func csrEq[I sparse.Index](t *testing.T, name string, got, want *sparse.Matrix[float64, I]) {
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

// checkLevelAPs holds every level's A·P to its operator and interpolant:
// a level with a CSR interpolant keeps A_k·P_k bitwise MatMul(A_k, P_k),
// A_k the level's operator (materialized on a stencil hand-off level);
// geometric levels and the coarsest keep none.
func checkLevelAPs(t *testing.T, name string, h *Hierarchy) {
	t.Helper()
	for k, lev := range h.Levels {
		itp, ok := lev.Itp.(*op.CSRInterp[float64, uint32])
		if ok != (lev.AP != nil) {
			t.Fatalf("%s: level %d with interpolant %T holds A·P %v", name, k, lev.Itp, lev.AP != nil)
		}
		if !ok {
			continue
		}
		a := op.AsCSR(lev.Op)
		if st, ok := lev.Op.(*op.Stencil); ok {
			a = sparse.Convert[float64, uint32](st.CSR())
		}
		csrEq(t, fmt.Sprintf("%s: level %d A·P", name, k), lev.AP, sparse.MatMul(a, itp.P))
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
	pDirect := DirectInterpolation(a, sRef, types, nil)
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
			csrEq(t, "direct", DirectInterpolation(a, s, types, nil), pDirect)
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
						av, pv, ptv := levelCSR(lv)
						aw, pw, ptw := levelCSR(lw)
						csrEq(t, "A", av, aw)
						if (pv == nil) != (pw == nil) {
							t.Fatalf("level %d P nil mismatch", k)
						}
						if pw != nil {
							csrEq(t, "P", pv, pw)
							csrEq(t, "PT", ptv, ptw)
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
		_, p, pt := levelCSR(lv)
		if (p == nil) != (k == len(h.Levels)-1) {
			t.Fatalf("level %d of %d: P present = %v", k, len(h.Levels), p != nil)
		}
		if p != nil {
			csrEq(t, "PT", pt, p.Transpose())
		}
	}
}

// TestBuildAllocBudget keeps the setup's containers flat: a Build makes a
// bounded number of allocations however many rows it is given. The budget
// is a few times the 650-1 400 the array-based setup makes and far under
// one allocation per row (4 096 at n=16, 32 768 at n=32), which is what a
// per-row slice or map anywhere in strength, coarsening, interpolation or
// RAP costs: the map-based interpolation made 95 000.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 2000
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
			if allocs > budget {
				t.Errorf("%s, %d workers: Build made %.0f allocations, budget %d", tc.name, workers, allocs, budget)
			}
		}
	}
}

// TestMultipassStagedPeakBounded is the work and memory guard of the
// aggressive level, kept in counts rather than times or bytes. Each later
// pass composes through rows finished before it began, so the composed
// rows stay short: every composed entry, all held until the one
// truncation at the end, comes to a small fixed share of nnz(A₀), and the
// composed entries per fine row do not grow with the grid. Composing
// through rows finished earlier in the same sweep instead made those rows
// grow with the grid, to 0.8 nnz(A₀) at n = 48.
func TestMultipassStagedPeakBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lap   func(int) *sparse.CSR
		share float64 // bound on StagedPeak / nnz(A₀)
	}{
		{"7pt", grid.Laplacian7pt, 0.32},
		{"27pt", grid.Laplacian27pt, 0.07},
	} {
		perRow := map[int]float64{}
		for _, n := range []int{16, 32, 36, 48} {
			if raceEnabled && n > 32 {
				continue
			}
			a := tc.lap(n)
			_, st, err := BuildWithStats(a, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if st.StagedPeak == 0 {
				t.Fatalf("%s n=%d: no multipass row was composed", tc.name, n)
			}
			share := float64(st.StagedPeak) / float64(a.NNZ())
			perRow[n] = float64(st.StagedPeak) / float64(a.Rows)
			t.Logf("%s n=%d: %d composed entries, %.4f nnz(A0), %.3f per fine row", tc.name, n, st.StagedPeak, share, perRow[n])
			if share > tc.share {
				t.Errorf("%s n=%d: %d composed entries, %.3f of nnz(A0) = %d, over %.2f", tc.name, n, st.StagedPeak, share, a.NNZ(), tc.share)
			}
		}
		if big, ok := perRow[48]; ok && big > 1.25*perRow[16] {
			t.Errorf("%s: %.3f composed entries per fine row at n=48, over 1.25 times the %.3f at n=16", tc.name, big, perRow[16])
		}
	}
}

// TestMultipassOrderingIndependent is the property that lets a later
// multipass pass shard: P is a function of the matrix and the splitting,
// not of the order of the rows. Under a seeded random symmetric
// permutation Π, with the splitting permuted alike, the untruncated
// multipass P(ΠAΠᵀ) is Π·P(A) with the coarse columns renumbered. The
// sums run in another order, so the entries agree to 1e-14 relative.
func TestMultipassOrderingIndependent(t *testing.T) {
	lap, err := fem.AssembleLaplace(fem.BallMesh(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"7pt n=8", grid.Laplacian7pt(8)},
		{"femlap", lap.A},
	} {
		n := tc.a.Rows
		s := StrengthGraph(tc.a, Theta)
		types := CoarsenAggressive(s, HMIS, 7)
		p, staged := interpolate(tc.a, s, types, Multipass, nil, 0)
		if staged == 0 {
			t.Fatalf("%s: no multipass row was composed; the check is vacuous", tc.name)
		}

		perm := rand.New(rand.NewSource(3)).Perm(n)
		coo := sparse.NewCOO(n, n, tc.a.NNZ())
		ptypes := make([]PointType, n)
		for i := 0; i < n; i++ {
			for q := tc.a.RowPtr[i]; q < tc.a.RowPtr[i+1]; q++ {
				coo.Add(perm[i], perm[tc.a.ColIdx[q]], tc.a.Vals[q])
			}
			ptypes[perm[i]] = types[i]
		}
		pa := coo.ToCSR()
		pp, _ := interpolate(pa, StrengthGraph(pa, Theta), ptypes, Multipass, nil, 0)

		// Coarse column c of P is column col[c] of P(ΠAΠᵀ).
		cidx, _ := coarseIndex(types)
		pcidx, _ := coarseIndex(ptypes)
		col := make([]int, p.Cols)
		for i, c := range cidx {
			if c >= 0 {
				col[c] = pcidx[perm[i]]
			}
		}
		row := map[int]float64{}
		for i := 0; i < n; i++ {
			r := perm[i]
			if got, want := pp.RowPtr[r+1]-pp.RowPtr[r], p.RowPtr[i+1]-p.RowPtr[i]; got != want {
				t.Fatalf("%s: row %d has %d entries permuted, %d unpermuted", tc.name, i, got, want)
			}
			clear(row)
			for q := pp.RowPtr[r]; q < pp.RowPtr[r+1]; q++ {
				row[pp.ColIdx[q]] = pp.Vals[q]
			}
			for q := p.RowPtr[i]; q < p.RowPtr[i+1]; q++ {
				want := p.Vals[q]
				got, ok := row[col[p.ColIdx[q]]]
				if !ok || math.Abs(got-want) > 1e-14*math.Abs(want) {
					t.Fatalf("%s: P[%d][%d] = %v unpermuted, %v (present %v) permuted", tc.name, i, p.ColIdx[q], want, got, ok)
				}
			}
		}
	}
}
