package engine

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// matrixFreeCase pairs a stencil operator with the CSR Laplacian it
// represents and the number of geometric coarse levels its hierarchy has
// (levels 1 … geom are class stencils).
type matrixFreeCase struct {
	name string
	n    int
	st   op.Operator
	csr  *sparse.CSR
	geom int
}

// matrixFreeCases are one-geometric-level hierarchies and, at n = 34
// ([39304 4913 512 …]), hierarchies that coarsen geometrically twice
// before the algebraic setup takes over.
func matrixFreeCases() []matrixFreeCase {
	return []matrixFreeCase{
		{"7pt", 12, op.NewStencil7(12), grid.Laplacian7pt(12), 1},
		{"27pt", 10, op.NewStencil27(10), grid.Laplacian27pt(10), 1},
		{"7pt-n34", 34, op.NewStencil7(34), grid.Laplacian7pt(34), 2},
		{"27pt-n34", 34, op.NewStencil27(34), grid.Laplacian27pt(34), 2},
	}
}

// TestMatrixFreeBitwiseVsCSR pins the matrix-free levels to the CSR path:
// the same hierarchy, expressed once with the stencil operators (fine
// level and every geometric Galerkin level) and class-table interpolants
// and once with their materialized CSR twins (the generator's matrix, the
// materialized A_k and P_k), must produce identical residual histories.
// Mult and AFACx work on the plain interpolant, Multadd on the smoothed
// one, whose class table is bitwise the twin's GEMM-built P̄: all three
// are bitwise-equal.
func TestMatrixFreeBitwiseVsCSR(t *testing.T) {
	opt := amg.DefaultOptions()
	smo := smoother.DefaultConfig()
	for _, tc := range matrixFreeCases() {
		t.Run(tc.name, func(t *testing.T) {
			hMF, _, err := amg.BuildOperatorWithStats(tc.st, opt)
			if err != nil {
				t.Fatalf("matrix-free build: %v", err)
			}
			levels := append([]amg.Level(nil), hMF.Levels...)
			for k := 0; k < len(levels); k++ {
				st, ok := levels[k].Op.(*op.Stencil)
				g, geom := levels[k].Itp.(*op.GeomInterp)
				if ok != (k <= tc.geom) || geom != (k < tc.geom) {
					t.Fatalf("level %d is %T with %T, want stencils down to level %d and class-table interpolants above it",
						k, levels[k].Op, levels[k].Itp, tc.geom)
				}
				if geom {
					levels[k].Itp = op.InterpFromCSR(g.CSR(), nil)
				}
				if ok {
					levels[k].Op = op.FromCSR(st.CSR()) // the twin's level k is the materialized A_k
				}
			}
			levels[0].Op = op.FromCSR(tc.csr)
			hCSR := &amg.Hierarchy{Levels: levels, Coarse: hMF.Coarse}

			sMF, err := NewFromHierarchy(hMF, smo)
			if err != nil {
				t.Fatalf("matrix-free engine: %v", err)
			}
			sCSR, err := NewFromHierarchy(hCSR, smo)
			if err != nil {
				t.Fatalf("csr engine: %v", err)
			}

			b := grid.RandomRHS(tc.st.Rows(), 5)
			for _, m := range []Method{Mult, AFACx, Multadd} {
				_, hmf := sMF.Solve(m, b, 6)
				_, hcs := sCSR.Solve(m, b, 6)
				if len(hmf) != len(hcs) {
					t.Fatalf("%v: history lengths %d vs %d", m, len(hmf), len(hcs))
				}
				for i := range hmf {
					if hmf[i] != hcs[i] {
						t.Errorf("%v cycle %d: matrix-free %.17g != csr %.17g", m, i, hmf[i], hcs[i])
					}
				}
			}
		})
	}
}

// TestMatrixFreeAllocContract is the matrix-free storage guarantee: a
// structured solve built through NewOperator never materializes the
// fine-level CSR (the operator holds only its class table), keeps no
// materialized A_k, P_k or P_kᵀ on any geometric level, holds every
// geometric interpolant, plain and smoothed, as one class table, and
// cycles stay allocation-free in steady state, exactly like the
// assembled path.
func TestMatrixFreeAllocContract(t *testing.T) {
	for _, tc := range matrixFreeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewOperator(tc.st, amg.DefaultOptions(), smoother.DefaultConfig())
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			if m := op.AsCSR(s.Ops[0]); m != nil {
				t.Errorf("fine operator is CSR-backed (%T)", s.Ops[0])
			}
			// An operator's class table holds at most 27 rows of 27 16-byte
			// entries; an interpolant's at most 216 prolongation rows of 27
			// entries and 216 restriction rows of 125, plus a class byte per
			// fine and coarse grid index.
			const tableBytes = 27 * 27 * 16
			itpBytes := func(k int) int {
				edge := int(math.Round(math.Cbrt(float64(s.LevelSize(k)))))
				return 216*(27+125)*16 + edge + edge/2
			}
			for k := 0; k <= tc.geom; k++ {
				if _, ok := s.Ops[k].(*op.Stencil); !ok {
					t.Errorf("level %d operator is %T, want a stencil", k, s.Ops[k])
				}
				if got := s.Ops[k].Bytes(); got > tableBytes {
					t.Errorf("level %d operator holds %d resident bytes, want <= %d (one class table)", k, got, tableBytes)
				}
				if lev := s.H.Levels[k]; lev.Op != s.Ops[k] {
					t.Errorf("level %d holds %T, not the engine's stencil", k, lev.Op)
				}
				if k == tc.geom {
					break
				}
				if lev := s.H.Levels[k]; lev.Itp != s.Itp[k] {
					t.Errorf("geometric level %d holds %T, not the engine's class table", k, lev.Itp)
				}
				for name, itp := range map[string]op.Interp{"P": s.Itp[k], "P̄": s.SItp[k]} {
					if _, ok := itp.(*op.GeomInterp); !ok {
						t.Errorf("level %d %s is %T, want a class table", k, name, itp)
					} else if got := itp.Bytes(); got <= 0 || got > itpBytes(k) {
						t.Errorf("level %d %s holds %d resident bytes, want (0, %d] (one class table)", k, name, got, itpBytes(k))
					}
				}
			}

			if raceEnabled {
				t.Skip("sync.Pool drops items under -race by design; per-cycle alloc counts do not hold")
			}
			// AllocsPerRun measures on one P, and sync.Pool keeps its most
			// recent item in a per-P slot no other P can reach: warm and
			// measure on that one P, with no collection emptying the pools
			// in between.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b := grid.RandomRHS(s.LevelSize(0), 1)
			x := make([]float64, s.LevelSize(0))
			w := s.NewWorkspace()
			for _, m := range []Method{Mult, Multadd, AFACx} {
				vec.Zero(x)
				s.Cycle(m, x, b, w) // warm pools and the coarse LU
				allocs := testing.AllocsPerRun(10, func() {
					s.Cycle(m, x, b, w)
				})
				if allocs != 0 {
					t.Errorf("%v cycle: %v allocs/run in steady state, want 0", m, allocs)
				}
			}
		})
	}
}

// TestFloat32HierarchyFootprint is the mixed-precision storage headline:
// on the paper's 7pt problem, float32 coarse storage shrinks the resident
// hierarchy (operators + interpolants) by at least 35%.
func TestFloat32HierarchyFootprint(t *testing.T) {
	a := grid.Laplacian7pt(16)
	opt := amg.DefaultOptions()
	smo := smoother.DefaultConfig()
	s64, err := New(a, opt, smo)
	if err != nil {
		t.Fatalf("float64 setup: %v", err)
	}
	opt32 := opt
	opt32.CoarsePrecision = op.CoarseFloat32
	s32, err := New(a, opt32, smo)
	if err != nil {
		t.Fatalf("float32 setup: %v", err)
	}
	b64, b32 := s64.HierarchyBytes(), s32.HierarchyBytes()
	if b64 <= 0 || b32 <= 0 {
		t.Fatalf("HierarchyBytes: f64 %d, f32 %d", b64, b32)
	}
	reduction := 1 - float64(b32)/float64(b64)
	if reduction < 0.35 {
		t.Errorf("float32 coarse storage saves %.1f%% (f64 %d B, f32 %d B), want >= 35%%",
			100*reduction, b64, b32)
	}
	// The float64 coarse levels must actually be droppable: the engine
	// owns its hierarchy here, so the levels hold the compressed views.
	for k := 1; k < s32.NumLevels(); k++ {
		if op.AsCSR(s32.H.Levels[k].Op) != nil {
			t.Errorf("level %d holds its float64 CSR", k)
		}
	}
	for k := 0; k < s32.NumLevels()-1; k++ {
		if _, ok := s32.H.Levels[k].Itp.(*op.CSRInterp[float32, int32]); !ok {
			t.Errorf("level %d holds a %T interpolant, want the float32 one", k, s32.H.Levels[k].Itp)
		}
	}
}

// oneGeometricLevel is the matrix-free hierarchy with a single geometric
// coarsening: the stencil's first Coarsen and the algebraic setup of the
// materialized A₁ below it, the reference TestGeometricLevelsConvergeNoWorse
// holds amg.BuildOperatorWithStats's further geometric levels to.
func oneGeometricLevel(t *testing.T, st *op.Stencil, opt amg.Options) *amg.Hierarchy {
	t.Helper()
	itp, coarse, err := st.Coarsen()
	if err != nil {
		t.Fatal(err)
	}
	sub := opt
	sub.MaxLevels--
	sub.AggressiveLevels = max(sub.AggressiveLevels-1, 0)
	h, _, err := amg.BuildWithStats(coarse.CSR(), sub)
	if err != nil {
		t.Fatal(err)
	}
	h.Levels[0].Op = coarse
	h.Levels = append([]amg.Level{{Op: st, Itp: itp}}, h.Levels...)
	return h
}

// TestGeometricLevelsConvergeNoWorse guards the 4 096-row stop of the
// geometric coarsening. On 7pt and 27pt n = 34, whose NewOperator
// hierarchy has two geometric coarse levels, the convergence factor of
// Mult, Multadd and AFACx is at most that of the one-geometric-level
// hierarchy plus 0.01. On n = 32, whose first coarsening already reaches
// 4 096 rows, AFACx converges: going geometric all the way down makes it
// diverge there (factors 1.38 and 1.71; EXPERIMENTS.md "Geometric levels
// above 4 096 rows").
func TestGeometricLevelsConvergeNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative convergence test")
	}
	const iters, slack = 30, 0.01
	opt := amg.DefaultOptions()
	smo := smoother.DefaultConfig()
	type stencil struct {
		name string
		op   *op.Stencil
	}
	for _, st := range []stencil{{"7pt", op.NewStencil7(34)}, {"27pt", op.NewStencil27(34)}} {
		s, err := NewOperator(st.op, opt, smo)
		if err != nil {
			t.Fatalf("%s: setup: %v", st.name, err)
		}
		ref, err := NewFromHierarchy(oneGeometricLevel(t, st.op, opt), smo)
		if err != nil {
			t.Fatalf("%s: oracle setup: %v", st.name, err)
		}
		for _, m := range []Method{Mult, Multadd, AFACx} {
			got, want := s.ConvergenceFactor(m, iters, 1), ref.ConvergenceFactor(m, iters, 1)
			t.Logf("%s n=34 %v: factor %.3f, one geometric level %.3f", st.name, m, got, want)
			if got > want+slack {
				t.Errorf("%s n=34 %v: convergence factor %.3f, above the one-geometric-level hierarchy's %.3f + %.2f", st.name, m, got, want, slack)
			}
		}
	}
	for _, st := range []stencil{{"7pt", op.NewStencil7(32)}, {"27pt", op.NewStencil27(32)}} {
		s, err := NewOperator(st.op, opt, smo)
		if err != nil {
			t.Fatalf("%s: setup: %v", st.name, err)
		}
		if f := s.ConvergenceFactor(AFACx, iters, 1); f >= 1 {
			t.Errorf("%s n=32: AFACx factor %.3f on levels %v, want < 1", st.name, f, s.H.GridSizes())
		}
	}
}
