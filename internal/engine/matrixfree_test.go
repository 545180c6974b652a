package engine

import (
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
// represents.
type matrixFreeCase struct {
	name string
	n    int
	st   op.Operator
	csr  *sparse.CSR
}

func matrixFreeCases() []matrixFreeCase {
	return []matrixFreeCase{
		{"7pt", 12, op.NewStencil7(12), grid.Laplacian7pt(12)},
		{"27pt", 10, op.NewStencil27(10), grid.Laplacian27pt(10)},
	}
}

// TestMatrixFreeBitwiseVsCSR pins the matrix-free levels to the CSR path:
// the same hierarchy, expressed once with the stencil operators (fine
// level and Galerkin level 1) and geometric interpolant and once with
// their materialized CSR twins (the generator's matrix, the materialized
// A₁), must produce identical residual histories. Mult and AFACx work on the plain
// interpolant and are bitwise-equal; Multadd applies the smoothed
// interpolant P̄ = G·P composed (matrix-free) versus materialized (CSR),
// whose products round differently, so it gets a rounding-level
// tolerance.
func TestMatrixFreeBitwiseVsCSR(t *testing.T) {
	opt := amg.DefaultOptions()
	smo := smoother.DefaultConfig()
	for _, tc := range matrixFreeCases() {
		t.Run(tc.name, func(t *testing.T) {
			hMF, _, err := amg.BuildOperatorWithStats(tc.st, opt)
			if err != nil {
				t.Fatalf("matrix-free build: %v", err)
			}
			geom, ok := hMF.Levels[0].Itp.(*op.GeomInterp)
			if !ok {
				t.Fatalf("fine interpolant is %T, want *op.GeomInterp", hMF.Levels[0].Itp)
			}
			if _, ok := hMF.Levels[1].Op.(*op.Stencil); !ok || hMF.Levels[1].A == nil {
				t.Fatalf("level 1 is %T with A %v, want a stencil beside its materialized A₁", hMF.Levels[1].Op, hMF.Levels[1].A != nil)
			}
			p := geom.CSR()
			levels := append([]amg.Level{{A: tc.csr, P: p, PT: p.Transpose()}}, hMF.Levels[1:]...)
			levels[1].Op = nil // the twin's level 1 is the materialized A₁
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
			for _, m := range []Method{Mult, AFACx} {
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
			_, hmf := sMF.Solve(Multadd, b, 6)
			_, hcs := sCSR.Solve(Multadd, b, 6)
			for i := range hmf {
				if err := relDiff(hmf[i], hcs[i]); err > 1e-12 {
					t.Errorf("multadd cycle %d: matrix-free %.17g vs csr %.17g (rel %.3g)", i, hmf[i], hcs[i], err)
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	if b < 0 {
		b = -b
	}
	return d / b
}

// TestMatrixFreeAllocContract is the matrix-free storage guarantee: a
// structured solve built through NewOperator never materializes the
// fine-level CSR (the operator holds only its class table, the
// interpolant nothing), keeps no materialized A₁ beside its level-1
// stencil, and cycles stay allocation-free in steady state, exactly like
// the assembled path.
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
			// A class table holds at most 27 rows of 27 16-byte entries.
			const tableBytes = 27 * 27 * 16
			for k := 0; k < 2; k++ {
				if got := s.Ops[k].Bytes(); got > tableBytes {
					t.Errorf("level %d operator holds %d resident bytes, want <= %d (one class table)", k, got, tableBytes)
				}
				if s.H.Levels[k].A != nil {
					t.Errorf("level %d retains a materialized CSR (%d nnz)", k, s.H.Levels[k].A.NNZ())
				}
			}
			if s.H.Levels[0].P != nil || s.P[0] != nil {
				t.Errorf("fine interpolant materialized P")
			}
			if got := s.Itp[0].Bytes(); got != 0 {
				t.Errorf("fine interpolant holds %d resident bytes, want 0", got)
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
	// The released float64 coarse levels must actually be droppable: the
	// engine owns its hierarchy here, so the levels were rewired onto the
	// compressed views.
	for k := 1; k < s32.NumLevels(); k++ {
		if s32.H.Levels[k].A != nil {
			t.Errorf("level %d retains its float64 CSR after release", k)
		}
	}
	for k := 0; k < s32.NumLevels()-1; k++ {
		if s32.H.Levels[k].P != nil || s32.H.Levels[k].PT != nil {
			t.Errorf("level %d retains float64 P/PT after release", k)
		}
	}
}
