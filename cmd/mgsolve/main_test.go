package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/harness"
	"asyncmg/internal/mtx"
	"asyncmg/internal/serve"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
)

func mustParse(t *testing.T, args ...string) (config, *solve.Plan) {
	t.Helper()
	c, p, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	return c, p
}

func TestParseMethod(t *testing.T) {
	cases := map[string]engine.Method{
		"mult": engine.Mult, "MULT": engine.Mult,
		"multadd": engine.Multadd,
		"afacx":   engine.AFACx,
		"bpx":     engine.BPX,
	}
	for in, want := range cases {
		if _, p := mustParse(t, "-method", in); p.Method != want {
			t.Errorf("-method %s resolved to %v", in, p.Method)
		}
	}
	if _, p := mustParse(t); p.Method != engine.Multadd {
		t.Errorf("default method %v, want multadd", p.Method)
	}
	if _, _, err := parseArgs([]string{"-method", "nope"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestParseSmoother(t *testing.T) {
	cases := map[string]smoother.Kind{
		"w-jacobi": smoother.WJacobi, "jacobi": smoother.WJacobi,
		"l1-jacobi": smoother.L1Jacobi, "l1": smoother.L1Jacobi,
		"hybrid-jgs": smoother.HybridJGS, "jgs": smoother.HybridJGS,
		"async-gs": smoother.AsyncGS, "gs": smoother.AsyncGS,
		"l1-hybrid-jgs": smoother.L1HybridJGS,
	}
	for in, want := range cases {
		if _, p := mustParse(t, "-smoother", in); p.Smoother.Kind != want {
			t.Errorf("-smoother %s resolved to %v", in, p.Smoother.Kind)
		}
	}
	if _, _, err := parseArgs([]string{"-smoother", "nope"}); err == nil {
		t.Error("unknown smoother accepted")
	}
}

// TestFlagsParseLikeQuery: mgsolve's knobs are the request's, so they
// reject what the service rejects and take only the overrides it lacks.
func TestFlagsParseLikeQuery(t *testing.T) {
	for _, args := range [][]string{
		{"-cycles", "0x10"},                    // base 10 only, like the query
		{"-async"},                             // now -mode async
		{"-damp", "0.5"},                       // now -damping fixed -damp_omega 0.5
		{"-damp-auto"},                         // now -damping auto [-damp_rollback]
		{"-damping", "auto"},                   // damping needs mode async
		{"-mode", "dist", "-method", "mult"},   // dist runs the additive methods only
		{"-solver", "pcg", "-method", "afacx"}, // not SPD
		{"-tol", "1e-6"},                       // a Krylov knob without a Krylov solver
		{"-mode", "async", "-write", "swap"},
		{"-stragglers", "1,x"},
		{"-return_x"}, {"-timeout_ms", "5"}, // request-only knobs
	} {
		if _, _, err := parseArgs(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	_, p := mustParse(t, "-mode", "async", "-damping", "auto", "-damp_rollback",
		"-write", "atomic", "-res", "global", "-read-hold", "3", "-stragglers", "1, 2")
	want := async.DampingPolicy{Mode: async.DampAuto, Rollback: true}
	if a := p.Async; a.Damping != want || a.Write != async.AtomicWrite || a.Res != async.GlobalRes ||
		a.Perturb.ReadHold != 3 || !reflect.DeepEqual(a.Perturb.Stragglers, []int{1, 2}) {
		t.Errorf("async overrides resolved to %+v", p)
	}
	// Run's default write mode is mgsolve's default too.
	if _, p := mustParse(t, "-mode", "async"); p.Async.Write != async.LockWrite {
		t.Errorf("default -write resolved to %v, want lock-write", p.Async.Write)
	}
}

// TestTableIRowsAreFlagLines: a paper method name means one thing in the
// harness and on the command line. Every asynchronous Table I row is the
// plan of its mgsolve flag line; the team-synchronous rows (goroutine
// teams behind global barriers) have no flag form.
func TestTableIRowsAreFlagLines(t *testing.T) {
	noFlagForm := []string{
		"sync Mult", "sync Multadd, lock-write", "sync Multadd, atomic-write",
		"sync AFACx, lock-write", "sync AFACx, atomic-write",
	}
	var synced []string
	for _, r := range harness.TableIMethods() {
		want := r.Plan
		if want.Async.Sync {
			synced = append(synced, r.Label)
			continue
		}
		_, got := mustParse(t, "-mode", "async", "-method", want.Method.String(),
			"-write", strings.TrimSuffix(want.Async.Write.String(), "-write"),
			"-res", strings.TrimSuffix(want.Async.Res.String(), "-res"))
		if got.Method != want.Method || got.Mode != want.Mode ||
			got.Async.Write != want.Async.Write || got.Async.Res != want.Async.Res {
			t.Errorf("%s: flag line resolved to %v %s %v %v", r.Label,
				got.Method, got.Mode, got.Async.Write, got.Async.Res)
		}
	}
	if !reflect.DeepEqual(synced, noFlagForm) {
		t.Errorf("team-synchronous rows %q, want %q", synced, noFlagForm)
	}
}

// TestNonFiniteMatrixRefused: a matrix file with a NaN entry fails the
// setup, so mgsolve exits non-zero instead of printing an infinite
// residual history.
func TestNonFiniteMatrixRefused(t *testing.T) {
	for _, v := range []string{"nan", "inf"} {
		path := filepath.Join(t.TempDir(), "a.mtx")
		body := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 " + v + "\n2 2 1\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c, plan := mustParse(t, "-matrix", path, "-method", "mult")
		if _, err := build(c, plan); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s entry: build error %v, want non-finite", v, err)
		}
	}
}

// TestFlagsAndJSONSolveAlike is the one-spec contract: a flag line and the
// equivalent /solve body resolve to the same plan, and the service's
// history is bitwise what solve.Run gives on mgsolve's own setup — across
// 4 methods × {cycle, pcg, fgmres} × 3 smoothers on 7pt n=8, plus one
// /solve/matrix upload.
func TestFlagsAndJSONSolveAlike(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post := func(path, ctype string, body []byte) serve.SolveResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d", path, body, resp.StatusCode)
		}
		var out serve.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(name string, c config, flagPlan, httpPlan *solve.Plan, got serve.SolveResponse) {
		t.Helper()
		if !reflect.DeepEqual(flagPlan, httpPlan) {
			t.Fatalf("%s: plans differ:\nflags %+v\nhttp  %+v", name, flagPlan, httpPlan)
		}
		setup, err := build(c, flagPlan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flagPlan.RightHandSide(setup.LevelSize(0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve.Run(context.Background(), setup, flagPlan, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.History) < 2 || len(got.History) != len(want.History) {
			t.Fatalf("%s: history lengths %d (http) and %d (run)", name, len(got.History), len(want.History))
		}
		for i := range want.History {
			if got.History[i] != want.History[i] {
				t.Fatalf("%s: history[%d] = %v over HTTP, %v from solve.Run", name, i, got.History[i], want.History[i])
			}
		}
	}

	for _, method := range []string{"mult", "multadd", "afacx", "bpx"} {
		for _, solver := range []string{"cycle", "pcg", "fgmres"} {
			if solver == "pcg" && method == "afacx" {
				continue // not SPD: refused on both entry points
			}
			for _, smo := range []string{"w-jacobi", "l1-jacobi", "async-gs"} {
				name := method + "/" + solver + "/" + smo
				c, flagPlan := mustParse(t, "-problem", "7pt", "-size", "8", "-method", method, "-solver", solver, "-smoother", smo)
				body, _ := json.Marshal(serve.SolveRequest{Problem: "7pt", Size: 8, Method: method, Solver: solver, Smoother: smo, Seed: 1})
				httpPlan, err := solve.Parse(body)
				if err != nil {
					t.Fatal(err)
				}
				check(name, c, flagPlan, httpPlan, post("/solve", "application/json", body))
			}
		}
	}

	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := mtx.WriteFile(path, grid.Laplacian7pt(6)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, flagPlan := mustParse(t, "-matrix", path, "-method", "mult", "-cycles", "10", "-smoother", "l1-jacobi")
	q := url.Values{"method": {"mult"}, "cycles": {"10"}, "smoother": {"l1-jacobi"}, "seed": {"1"}}
	httpPlan, err := solve.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	got := post("/solve/matrix?"+q.Encode(), "text/plain", raw)
	if !strings.HasPrefix(got.Problem, "mtx:") {
		t.Errorf("upload answered as problem %q", got.Problem)
	}
	check("upload", c, flagPlan, httpPlan, got)
}
