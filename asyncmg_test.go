package asyncmg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"asyncmg"
	"asyncmg/internal/harness"
	"asyncmg/internal/serve"
)

// These tests exercise the public façade end to end, the way a downstream
// user would: generate or load a problem, set up, solve with each solver
// family, and check the numbers. The problem registry and the solver
// service are not part of the façade; the commands reach them through
// internal/harness and internal/serve, and so do the tests of them here.

func TestPublicQuickstartFlow(t *testing.T) {
	a := asyncmg.Laplacian27pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 1)
	res, err := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
		Method: asyncmg.Multadd, Write: asyncmg.AtomicWrite, Res: asyncmg.LocalRes,
		Criterion: asyncmg.Criterion1, Threads: 6, MaxCycles: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-4 {
		t.Errorf("quickstart solve: relres %g diverged=%v", res.RelRes, res.Diverged)
	}
}

func TestPublicSyncSolvers(t *testing.T) {
	a := asyncmg.Laplacian7pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 2)
	for _, m := range []asyncmg.Method{asyncmg.Mult, asyncmg.Multadd, asyncmg.AFACx} {
		_, hist := asyncmg.SolveSync(setup, m, b, 100)
		if hist[len(hist)-1] > 1e-6 {
			t.Errorf("%v: relres %g after 100 cycles", m, hist[len(hist)-1])
		}
	}
}

func TestPublicFEMFlow(t *testing.T) {
	mesh := asyncmg.BallMesh(6)
	prob, err := asyncmg.AssembleLaplace(mesh)
	if err != nil {
		t.Fatal(err)
	}
	opt := asyncmg.DefaultAMGOptions()
	opt.AggressiveLevels = 0
	setup, err := asyncmg.NewSetup(prob.A, opt,
		asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: 0.5, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(prob.A.Rows, 3)
	x, hist := asyncmg.SolveSync(setup, asyncmg.Mult, b, 60)
	if hist[len(hist)-1] > 1e-6 {
		t.Errorf("FEM Mult relres %g", hist[len(hist)-1])
	}
	full := prob.Expand(x)
	if len(full) != len(mesh.Nodes) {
		t.Errorf("Expand length %d, want %d", len(full), len(mesh.Nodes))
	}
}

func TestPublicModelFlow(t *testing.T) {
	a := asyncmg.Laplacian27pt(6)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 4)
	res, err := asyncmg.SimulateModel(setup, b, asyncmg.ModelConfig{
		Variant: asyncmg.FullAsyncResidual, Method: asyncmg.AFACx,
		Alpha: 0.3, Delta: 4, Updates: 15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelRes > 0.5 {
		t.Errorf("model made no progress: %g", res.RelRes)
	}
}

func TestPublicPCGFlow(t *testing.T) {
	a := asyncmg.Laplacian7pt(8)
	opt := asyncmg.DefaultAMGOptions()
	opt.AggressiveLevels = 0
	setup, err := asyncmg.NewSetup(a, opt, asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 5)
	cgOpt := asyncmg.DefaultCGOptions()
	cgOpt.M = asyncmg.NewMGPreconditioner(setup, asyncmg.BPX)
	res, err := asyncmg.SolveCG(a, b, cgOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 40 {
		t.Errorf("BPX-PCG: converged=%v its=%d", res.Converged, res.Iterations)
	}
}

func TestPublicDistributedFlow(t *testing.T) {
	a := asyncmg.Laplacian7pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 6)
	res, err := asyncmg.SolveDistributed(setup, b, asyncmg.DistConfig{
		Method: asyncmg.Multadd, MaxCorrections: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RelRes > 1e-3 {
		t.Errorf("distributed relres %g", res.RelRes)
	}
}

func TestPublicMatrixMarketRoundTrip(t *testing.T) {
	a := asyncmg.Laplacian7pt(4)
	path := filepath.Join(t.TempDir(), "lap7.mtx")
	if err := asyncmg.WriteMatrixMarketFile(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := asyncmg.ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() || back.Rows != a.Rows {
		t.Error("round trip changed the matrix")
	}
	// The re-read matrix is directly usable by the solvers.
	setup, err := asyncmg.NewSetup(back, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(back.Rows, 7)
	_, hist := asyncmg.SolveSync(setup, asyncmg.Mult, b, 30)
	if hist[len(hist)-1] > 1e-6 {
		t.Errorf("solve on re-read matrix: %g", hist[len(hist)-1])
	}
}

func TestPublicCOOAssembly(t *testing.T) {
	coo := asyncmg.NewCOO(3, 3, 9)
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	a := coo.ToCSR()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(0) {
		t.Error("assembled matrix not symmetric")
	}
}

func TestPublicHierarchyIntrospection(t *testing.T) {
	a := asyncmg.Laplacian7pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	h := setup.H
	sizes := h.GridSizes()
	if len(sizes) < 2 || sizes[0] != a.Rows {
		t.Errorf("GridSizes = %v", sizes)
	}
	if oc := h.OperatorComplexity(); oc < 1 || math.IsNaN(oc) {
		t.Errorf("operator complexity %v", oc)
	}
	if setup.NumLevels() != h.NumLevels() {
		t.Error("setup levels disagree with hierarchy")
	}
}

func TestPublicSpectralDiagnostics(t *testing.T) {
	a := asyncmg.Laplacian7pt(5)
	scale, err := asyncmg.SmootherScaling(a, asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	rho, err := asyncmg.AsyncSmootherRadius(a, scale)
	if err != nil {
		t.Fatal(err)
	}
	if rho >= 1 || rho <= 0 {
		t.Errorf("rho(|G|) = %v, want in (0, 1)", rho)
	}
	if r, err := asyncmg.SpectralRadius(a, 1e-10, 5000); err != nil || r <= 0 {
		t.Errorf("SpectralRadius: %v, %v", r, err)
	}
}

func TestPublicSyncHistory(t *testing.T) {
	a := asyncmg.Laplacian7pt(6)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 9)
	res, err := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
		Method: asyncmg.Multadd, Sync: true, Write: asyncmg.LockWrite,
		Threads: 4, MaxCycles: 8, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 9 || res.History[0] != 1 {
		t.Errorf("history %v", res.History)
	}
}

func TestPublicProblemRegistry(t *testing.T) {
	names := harness.AllProblems()
	if len(names) != 4 {
		t.Fatalf("problem families = %v", names)
	}
	for _, name := range names {
		size := 4
		if name == harness.ProblemElasticity {
			size = 2
		}
		a, err := harness.BuildProblem(name, size)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Rows == 0 {
			t.Errorf("%s: empty matrix", name)
		}
	}
}

func TestPublicSolveSyncCtx(t *testing.T) {
	a := asyncmg.Laplacian7pt(6)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		t.Fatal(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 3)
	refX, refH := asyncmg.SolveSync(setup, asyncmg.Mult, b, 10)
	x, hist, err := setup.SolveCtx(context.Background(), asyncmg.Mult, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refH {
		if hist[i] != refH[i] {
			t.Fatalf("SolveCtx hist[%d] = %v, want %v", i, hist[i], refH[i])
		}
	}
	for i := range refX {
		if x[i] != refX[i] {
			t.Fatalf("SolveCtx x[%d] = %v, want %v", i, x[i], refX[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := setup.SolveCtx(ctx, asyncmg.Mult, b, 10); err != context.Canceled {
		t.Fatalf("cancelled SolveCtx error = %v, want context.Canceled", err)
	}
}

func TestPublicSolverServer(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(serve.SolveRequest{
		Problem: "7pt", Size: 5, Method: "mult", Cycles: 8,
	})
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 125 || out.RelRes >= 1 || out.RelRes <= 0 {
		t.Errorf("served solve: rows=%d relres=%g", out.Rows, out.RelRes)
	}
}
