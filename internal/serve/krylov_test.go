package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/harness"
	"asyncmg/internal/krylov"
	"asyncmg/internal/obs"
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
	if resp.Solver != SolverPCG || !resp.Converged {
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
		Problem: harness.ProblemConvDiff, Size: 8, Method: "multadd",
		Solver: "fgmres", Tol: 1e-8, MaxIter: 300, Seed: 5,
	})
	if code != 200 {
		t.Fatalf("fgmres: status %d", code)
	}
	if !resp.Converged {
		t.Fatalf("fgmres did not converge: %d its, relres %g", resp.Iterations, resp.RelRes)
	}
	if resp.Solver != SolverFGMRES {
		t.Errorf("solver echoed as %q", resp.Solver)
	}
}

// TestServeKrylovValidation: the solver-selection surface rejects
// malformed knobs with 400 before any work happens.
func TestServeKrylovValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []SolveRequest{
		{Problem: "7pt", Size: 6, Solver: "sor"},                             // unknown solver
		{Problem: "7pt", Size: 6, Solver: "pcg", Tol: -1e-9},                 // negative tol
		{Problem: "7pt", Size: 6, Solver: "pcg", Tol: 2},                     // tol >= 1
		{Problem: "7pt", Size: 6, Solver: "pcg", MaxIter: -3},                // negative maxiter
		{Problem: "7pt", Size: 6, Solver: "pcg", MaxIter: maxKrylovIter + 1}, // maxiter too big
		{Problem: "7pt", Size: 6, Solver: "pcg", Restart: 10},                // restart without fgmres
		{Problem: "7pt", Size: 6, Solver: "fgmres", Restart: -1},             // negative restart
		{Problem: "7pt", Size: 6, Solver: "fgmres", Restart: maxRestart + 1}, // restart too big
		{Problem: "7pt", Size: 6, Solver: "pcg", Method: "afacx"},            // non-SPD preconditioner
		{Problem: "7pt", Size: 6, Solver: "pcg", Mode: "async"},              // krylov is sync-only
		{Problem: "7pt", Size: 6, Solver: "fgmres", Mode: "dist"},            // krylov is sync-only
		{Problem: "7pt", Size: 6, Tol: 1e-8},                                 // krylov knob with cycle solver
		{Problem: "7pt", Size: 6, MaxIter: 50},                               // krylov knob with cycle solver
		{Problem: "7pt", Size: 6, Restart: 20},                               // krylov knob with cycle solver
	}
	for i, req := range cases {
		if _, code := postSolve(t, ts.URL, req); code != 400 {
			t.Errorf("case %d (%+v): status %d, want 400", i, req, code)
		}
	}
	// NaN tol cannot ride JSON; exercise it through the decoder directly.
	if _, err := specFromRequest(&SolveRequest{Problem: "7pt", Size: 6, Solver: "pcg", Tol: nan()}); err == nil {
		t.Error("NaN tol accepted")
	}
}

func nan() float64 { var z float64; return z / z }

// TestServeBatchedPCGMatchesSolo: concurrent same-key PCG requests
// coalesce into one block solve, and each rider's answer is bitwise the
// solo answer — the batcher's bitwise-invisibility contract extended to
// the Krylov tier.
func TestServeBatchedPCGMatchesSolo(t *testing.T) {
	o := obs.New(16)
	srv, ts := newTestServer(t, Config{
		Workers:     16,
		BatchWindow: 100 * time.Millisecond,
		MaxBatch:    4,
		Observer:    o,
	})

	const size, clients = 6, 3
	base := SolveRequest{Problem: "7pt", Size: size, Method: "multadd", Solver: "pcg", Tol: 1e-8, ReturnX: true}

	// Solo references, one per seed, batching off.
	solo := make([]*SolveResponse, clients)
	for c := 0; c < clients; c++ {
		req := base
		req.Seed = int64(c + 1)
		req.NoBatch = true
		resp, code := postSolve(t, ts.URL, req)
		if code != 200 {
			t.Fatalf("solo %d: status %d", c, code)
		}
		solo[c] = resp
	}

	var wg sync.WaitGroup
	batched := make([]*SolveResponse, clients)
	codes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := base
			req.Seed = int64(c + 1)
			batched[c], codes[c] = postSolve(t, ts.URL, req)
		}(c)
	}
	wg.Wait()

	sawBatch := false
	for c := 0; c < clients; c++ {
		if codes[c] != 200 {
			t.Fatalf("batched %d: status %d", c, codes[c])
		}
		if batched[c].Batched > 1 {
			sawBatch = true
		}
		if batched[c].Iterations != solo[c].Iterations || batched[c].Converged != solo[c].Converged {
			t.Errorf("client %d: batched %d its (conv %v), solo %d its (conv %v)",
				c, batched[c].Iterations, batched[c].Converged, solo[c].Iterations, solo[c].Converged)
		}
		if fmt.Sprint(batched[c].History) != fmt.Sprint(solo[c].History) {
			t.Errorf("client %d: batched history %v != solo %v", c, batched[c].History, solo[c].History)
		}
		for i := range solo[c].X {
			if batched[c].X[i] != solo[c].X[i] {
				t.Fatalf("client %d: x[%d] = %v batched, %v solo", c, i, batched[c].X[i], solo[c].X[i])
			}
		}
	}
	if !sawBatch {
		t.Log("no request reported batched > 1 (timing); bitwise checks still ran")
	}
	_ = srv
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
// operator-generic contract surfaced through the API. The stencil path
// has no block apply, so the request falls back to a solo Krylov solve.
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
	if resp.Batched != 1 {
		t.Errorf("stencil path cannot block-batch, got batched=%d", resp.Batched)
	}
}

// TestSoloKrylovHelperFGMRES pins the solver dispatch inside soloKrylov.
func TestSoloKrylovHelperFGMRES(t *testing.T) {
	// Exercised indirectly by the HTTP tests; here just check the
	// defaults the serve layer hands to the library are in range.
	opt := krylov.DefaultOptions()
	if opt.Tol <= 0 || opt.MaxIter <= 0 {
		t.Fatalf("library defaults unusable: %+v", opt)
	}
	if defaultKrylovMaxIter > maxKrylovIter {
		t.Fatal("serve default exceeds its own bound")
	}
	if _, err := parseMethod("mult"); err != nil {
		t.Fatal(err)
	}
	if m, _ := parseMethod("afacx"); m != engine.AFACx {
		t.Fatal("parseMethod afacx")
	}
}
