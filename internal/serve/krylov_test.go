package serve

import (
	"fmt"
	"sync"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/obs"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
)

// TestServePCGConvergesAndReusesCache is the tentpole contract end to
// end: a PCG request on a hierarchy a cycle request already built hits
// the cache (setup_ns 0), converges, and needs no more iterations than
// the cycle solver needed cycles to reach the same tolerance.
func TestServePCGConvergesAndReusesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Warm the cache with a plain cycling solve and note its work.
	cyc, code := postSolve(t, ts.URL, SolveRequest{Problem: "7pt", Size: 8, Method: "mult", Cycles: 60, Seed: 3})
	if code != 200 {
		t.Fatalf("cycle warmup: status %d", code)
	}
	cycIters := itersToTol(cyc.History, 1e-8)
	if cycIters < 0 {
		t.Fatalf("cycling never reached 1e-8: %v", cyc.History)
	}

	resp, code := postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 8, Method: "mult", Seed: 3,
		Solver: "pcg", Tol: 1e-8,
	})
	if code != 200 {
		t.Fatalf("pcg: status %d", code)
	}
	if resp.Cache != "hit" || resp.SetupNS != 0 {
		t.Errorf("pcg request should reuse the cached hierarchy: cache=%q setup_ns=%d", resp.Cache, resp.SetupNS)
	}
	if resp.Solver != solve.SolverPCG || !resp.Converged {
		t.Fatalf("solver=%q converged=%v, want pcg converged", resp.Solver, resp.Converged)
	}
	if resp.Iterations <= 0 || resp.Iterations > cycIters {
		t.Errorf("pcg took %d iterations, cycling needed %d cycles — Krylov must not lose", resp.Iterations, cycIters)
	}
	if resp.RelRes >= 1e-8 {
		t.Errorf("relres %g not below tol", resp.RelRes)
	}
}

// itersToTol returns the first index at which hist drops below tau, or -1.
func itersToTol(hist []float64, tau float64) int {
	for i, v := range hist {
		if v < tau {
			return i
		}
	}
	return -1
}

// TestServeFGMRESNonSymmetric: the conv-diff problem family is servable
// and fgmres converges on it with the cached multadd hierarchy as a
// flexible preconditioner.
func TestServeFGMRESNonSymmetric(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, code := postSolve(t, ts.URL, SolveRequest{
		Problem: problem.ConvDiff, Size: 8, Method: "multadd",
		Solver: "fgmres", Tol: 1e-8, MaxIter: 300, Seed: 5,
	})
	if code != 200 {
		t.Fatalf("fgmres: status %d", code)
	}
	if !resp.Converged {
		t.Fatalf("fgmres did not converge: %d its, relres %g", resp.Iterations, resp.RelRes)
	}
	if resp.Solver != solve.SolverFGMRES {
		t.Errorf("solver echoed as %q", resp.Solver)
	}
}

// TestServeKrylovValidation: the solver-selection surface rejects
// malformed knobs with 400 before any work happens.
func TestServeKrylovValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []SolveRequest{
		{Problem: "7pt", Size: 6, Solver: "sor"},                                   // unknown solver
		{Problem: "7pt", Size: 6, Solver: "pcg", Tol: -1e-9},                       // negative tol
		{Problem: "7pt", Size: 6, Solver: "pcg", Tol: 2},                           // tol >= 1
		{Problem: "7pt", Size: 6, Solver: "pcg", MaxIter: -3},                      // negative maxiter
		{Problem: "7pt", Size: 6, Solver: "pcg", MaxIter: solve.MaxKrylovIter + 1}, // maxiter too big
		{Problem: "7pt", Size: 6, Solver: "pcg", Restart: 10},                      // restart without fgmres
		{Problem: "7pt", Size: 6, Solver: "fgmres", Restart: -1},                   // negative restart
		{Problem: "7pt", Size: 6, Solver: "fgmres", Restart: solve.MaxRestart + 1}, // restart too big
		{Problem: "7pt", Size: 6, Solver: "pcg", Method: "afacx"},                  // non-SPD preconditioner
		{Problem: "7pt", Size: 6, Solver: "pcg", Mode: "async"},                    // krylov is sync-only
		{Problem: "7pt", Size: 6, Solver: "fgmres", Mode: "dist"},                  // krylov is sync-only
		{Problem: "7pt", Size: 6, Tol: 1e-8},                                       // krylov knob with cycle solver
		{Problem: "7pt", Size: 6, MaxIter: 50},                                     // krylov knob with cycle solver
		{Problem: "7pt", Size: 6, Restart: 20},                                     // krylov knob with cycle solver
	}
	for i, req := range cases {
		if _, code := postSolve(t, ts.URL, req); code != 400 {
			t.Errorf("case %d (%+v): status %d, want 400", i, req, code)
		}
	}
	// NaN tol cannot ride JSON; exercise it through the decoder directly.
	if _, err := (&SolveRequest{Problem: "7pt", Size: 6, Solver: "pcg", Tol: nan()}).Validate(); err == nil {
		t.Error("NaN tol accepted")
	}
}

func nan() float64 { var z float64; return z / z }

// TestServeConcurrentPCGMatchesSolo: concurrent PCG requests on one
// cached hierarchy each solve alone, and each answer is bitwise the
// library's solo krylov.PCG on a private engine.
func TestServeConcurrentPCGMatchesSolo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 16})

	const size, clients = 6, 3
	a := grid.Laplacian7pt(size)
	ref, err := engine.New(a, amg.DefaultOptions(), smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatalf("reference setup: %v", err)
	}

	var wg sync.WaitGroup
	got := make([]*SolveResponse, clients)
	codes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], codes[c] = postSolve(t, ts.URL, SolveRequest{
				Problem: "7pt", Size: size, Method: "multadd", Solver: "pcg", Tol: 1e-8,
				Seed: int64(c + 1), ReturnX: true,
			})
		}(c)
	}
	wg.Wait()

	for c := 0; c < clients; c++ {
		if codes[c] != 200 {
			t.Fatalf("client %d: status %d", c, codes[c])
		}
		opt := krylov.DefaultOptions()
		opt.Tol = 1e-8
		opt.MaxIter = solve.DefaultKrylovMaxIter
		p := krylov.NewMGPreconditioner(ref, engine.Multadd)
		opt.M = p
		want, err := krylov.PCG(ref.Ops[0], grid.RandomRHS(a.Rows, int64(c+1)), opt)
		p.Release()
		if err != nil {
			t.Fatalf("client %d: reference PCG: %v", c, err)
		}
		if got[c].Batched != 1 {
			t.Errorf("client %d: batched %d, want 1", c, got[c].Batched)
		}
		if got[c].Iterations != want.Iterations || got[c].Converged != want.Converged {
			t.Errorf("client %d: served %d its (conv %v), library %d its (conv %v)",
				c, got[c].Iterations, got[c].Converged, want.Iterations, want.Converged)
		}
		if fmt.Sprint(got[c].History) != fmt.Sprint(want.History) {
			t.Errorf("client %d: served history %v != library %v", c, got[c].History, want.History)
		}
		for i := range want.X {
			if got[c].X[i] != want.X[i] {
				t.Fatalf("client %d: x[%d] = %v served, %v library", c, i, got[c].X[i], want.X[i])
			}
		}
	}
}

// TestServeKrylovCounters: the obs registry sees the Krylov solves.
func TestServeKrylovCounters(t *testing.T) {
	o := obs.New(16)
	_, ts := newTestServer(t, Config{Observer: o})
	if _, code := postSolve(t, ts.URL, SolveRequest{Problem: "7pt", Size: 6, Method: "mult", Solver: "pcg", Tol: 1e-8}); code != 200 {
		t.Fatalf("pcg: status %d", code)
	}
	if o.KrylovPCGSolves.Load() == 0 {
		t.Error("krylov_pcg_solves_total did not move")
	}
	if o.KrylovIterations.Load() == 0 {
		t.Error("krylov_iterations_total did not move")
	}
	if o.KrylovConverged.Load() == 0 {
		t.Error("krylov_converged_total did not move")
	}
}

// TestServeKrylovMatrixFreeStencil: with MatrixFree on, the pcg request
// runs on the stencil fine level (no CSR materialization) — the
// operator-generic contract surfaced through the API.
func TestServeKrylovMatrixFreeStencil(t *testing.T) {
	_, ts := newTestServer(t, Config{MatrixFree: true})
	resp, code := postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 8, Method: "mult", Solver: "pcg", Tol: 1e-8, Seed: 2,
	})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Converged {
		t.Fatalf("matrix-free pcg did not converge: %d its, relres %g", resp.Iterations, resp.RelRes)
	}
}

// TestSoloKrylovHelperFGMRES pins what the service hands the Krylov
// dispatch in solve.Run: an fgmres request over afacx resolves to FGMRES
// with the library's restart default, and the defaults are in range.
func TestSoloKrylovHelperFGMRES(t *testing.T) {
	// Exercised end to end by the HTTP tests; here just check the
	// defaults the request layer hands to the library are in range.
	opt := krylov.DefaultOptions()
	if opt.Tol <= 0 || opt.MaxIter <= 0 {
		t.Fatalf("library defaults unusable: %+v", opt)
	}
	if solve.DefaultKrylovMaxIter > solve.MaxKrylovIter {
		t.Fatal("request default exceeds its own bound")
	}
	p, err := solve.Parse([]byte(`{"problem":"7pt","size":6,"method":"afacx","solver":"fgmres"}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != engine.AFACx || p.Solver != solve.SolverFGMRES || p.Restart != krylov.DefaultRestart {
		t.Fatalf("fgmres over afacx resolved to %+v", p)
	}
}
