package serve

import (
	"context"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/solve"
)

// TestServeMatrixFree checks the service-level plumbing of the
// operator-generic engine: a MatrixFree server solves the structured
// problems through the stencil fine level (smaller resident hierarchy,
// reported per response), converges the same, and FEM problems fall back
// to the assembled path untouched.
func TestServeMatrixFree(t *testing.T) {
	_, tsCSR := newTestServer(t, Config{})
	_, tsMF := newTestServer(t, Config{MatrixFree: true})

	req := SolveRequest{Problem: "7pt", Size: 10, Method: "mult", Cycles: 8}
	csr, code := postSolve(t, tsCSR.URL, req)
	if code != 200 {
		t.Fatalf("csr solve: status %d", code)
	}
	mf, code := postSolve(t, tsMF.URL, req)
	if code != 200 {
		t.Fatalf("matrix-free solve: status %d", code)
	}
	if mf.Rows != csr.Rows || mf.Levels < 2 {
		t.Fatalf("matrix-free hierarchy differs: rows %d vs %d, levels %d", mf.Rows, csr.Rows, mf.Levels)
	}
	if mf.HierarchyBytes <= 0 || csr.HierarchyBytes <= 0 {
		t.Fatalf("hierarchy bytes not reported: mf %d, csr %d", mf.HierarchyBytes, csr.HierarchyBytes)
	}
	if mf.HierarchyBytes >= csr.HierarchyBytes {
		t.Errorf("matrix-free hierarchy not smaller: %d B vs %d B", mf.HierarchyBytes, csr.HierarchyBytes)
	}
	if mf.RelRes <= 0 || mf.RelRes > 1e-2 {
		t.Errorf("matrix-free solve did not converge: relres %g", mf.RelRes)
	}

	// FEM has no stencil form; the matrix-free server must fall back.
	fem, code := postSolve(t, tsMF.URL, SolveRequest{Problem: "mfem-laplace", Size: 6, Method: "mult", Cycles: 8})
	if code != 200 {
		t.Fatalf("fem fallback solve: status %d", code)
	}
	if fem.RelRes <= 0 || fem.RelRes > 1e-1 {
		t.Errorf("fem fallback did not converge: relres %g", fem.RelRes)
	}
}

// TestServeFloat32Coarse checks that a server configured for float32
// coarse storage serves smaller hierarchies with unchanged convergence.
func TestServeFloat32Coarse(t *testing.T) {
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	_, ts32 := newTestServer(t, Config{AMG: &opt})
	_, ts64 := newTestServer(t, Config{})

	req := SolveRequest{Problem: "7pt", Size: 10, Method: "multadd", Cycles: 8}
	r64, code := postSolve(t, ts64.URL, req)
	if code != 200 {
		t.Fatalf("float64 solve: status %d", code)
	}
	r32, code := postSolve(t, ts32.URL, req)
	if code != 200 {
		t.Fatalf("float32 solve: status %d", code)
	}
	if r32.HierarchyBytes >= r64.HierarchyBytes {
		t.Errorf("float32 hierarchy not smaller: %d B vs %d B", r32.HierarchyBytes, r64.HierarchyBytes)
	}
	if rel := relDiff(r32.RelRes, r64.RelRes); rel > 1e-6 {
		t.Errorf("float32 convergence diverged: relres %g vs %g (rel %g)", r32.RelRes, r64.RelRes, rel)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	if b == 0 {
		return d
	}
	return d / b
}

// TestServeBlockSmoothersWithoutCSR pins the block smoothers on the levels
// that hold no float64 CSR: a matrix-free server given async-gs, a
// float32-coarse one given hybrid-jgs, and one with both given
// l1-hybrid-jgs answer 200 with bitwise the history solve.Run gives on an
// engine built as the server builds it.
func TestServeBlockSmoothersWithoutCSR(t *testing.T) {
	f32 := amg.DefaultOptions()
	f32.CoarsePrecision = op.CoarseFloat32
	for _, tc := range []struct {
		name string
		cfg  Config
		req  SolveRequest
	}{
		{"matrix-free", Config{MatrixFree: true}, SolveRequest{Smoother: "async-gs"}},
		{"f32-coarse", Config{AMG: &f32}, SolveRequest{Smoother: "hybrid-jgs"}},
		{"matrix-free-f32-coarse", Config{MatrixFree: true, AMG: &f32}, SolveRequest{Smoother: "l1-hybrid-jgs"}},
	} {
		t.Run(tc.name+"/"+tc.req.Smoother, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			req := tc.req
			req.Problem, req.Size, req.Method, req.Cycles, req.Seed = "7pt", 10, "mult", 8, 3
			got, code := postSolve(t, ts.URL, req)
			if code != 200 {
				t.Fatalf("status %d, want 200", code)
			}
			plan, err := req.Validate()
			if err != nil {
				t.Fatal(err)
			}
			e, err := solve.Build(solve.Source{Problem: req.Problem, Size: req.Size}, *s.cfg.AMG, plan.Smoother, tc.cfg.MatrixFree)
			if err != nil {
				t.Fatal(err)
			}
			b, err := plan.RightHandSide(e.LevelSize(0))
			if err != nil {
				t.Fatal(err)
			}
			want, err := solve.Run(context.Background(), e, plan, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.History) != len(want.History) || len(want.History) != req.Cycles+1 {
				t.Fatalf("history lengths %d served, %d from solve.Run, want %d", len(got.History), len(want.History), req.Cycles+1)
			}
			for i, h := range want.History {
				if got.History[i] != h {
					t.Fatalf("history[%d] = %v served, %v from solve.Run", i, got.History[i], h)
				}
			}
			if got.RelRes > 1e-3 {
				t.Errorf("relres %g after %d cycles", got.RelRes, req.Cycles)
			}
		})
	}
}
