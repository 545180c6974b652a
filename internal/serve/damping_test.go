package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"asyncmg/internal/async"
	"asyncmg/internal/solve"
)

// postSolveBody posts a raw JSON body to /solve (for requests whose
// wire shape is the thing under test).
func postSolveBody(t *testing.T, url, body string) (*SolveResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &out, resp.StatusCode
}

// TestDampingRequestValidation pins the decoder's damping-policy
// rejections: bad ω bounds, NaN/Inf, unknown policy names and
// mode/method mismatches are 400-class errors, never accepted specs.
func TestDampingRequestValidation(t *testing.T) {
	bad := []string{
		`{"problem":"7pt","size":5,"mode":"async","damping":"adaptive"}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_omega":1.5}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_omega":-0.2}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_min_omega":2}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_omega":0.3,"damp_min_omega":0.5}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_staleness_ref":-1}`,
		`{"problem":"7pt","size":5,"mode":"async","damping":"fixed"}`,
		`{"problem":"7pt","size":5,"damping":"auto"}`,
		`{"problem":"7pt","size":5,"mode":"dist","damping":"fixed","damp_omega":0.5}`,
		`{"problem":"7pt","size":5,"mode":"async","method":"mult","damping":"auto"}`,
		`{"problem":"7pt","size":5,"damp_rollback":true}`,
	}
	for _, body := range bad {
		if sp, err := solve.Parse([]byte(body)); err == nil {
			t.Errorf("accepted %s as %+v", body, sp)
		}
	}
	// NaN/Inf cannot be written in JSON, but the struct path (and the
	// query path below) can carry them; Validate must catch both.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := &SolveRequest{Problem: "7pt", Size: 5, Mode: solve.ModeAsync, Damping: "auto", DampOmega: v}
		if sp, err := req.Validate(); err == nil {
			t.Errorf("accepted damp_omega %v as %+v", v, sp)
		}
	}
	for _, q := range []string{
		"mode=async&damping=auto&damp_omega=nan",
		"mode=async&damping=auto&damp_omega=+inf",
		"mode=async&damping=auto&damp_omega=x",
		"mode=async&damping=bogus",
		"mode=async&damping=auto&damp_staleness_ref=ten",
		"mode=async&damping=auto&damp_rollback=maybe",
		"damping=auto",
	} {
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if sp, err := solve.FromQuery(vals); err == nil {
			t.Errorf("accepted query %q as %+v", q, sp)
		}
	}

	// The happy paths produce the policy they name.
	sp, err := solve.Parse([]byte(
		`{"problem":"7pt","size":5,"mode":"async","damping":"auto","damp_omega":0.9,"damp_rollback":true}`))
	if err != nil {
		t.Fatalf("good auto request rejected: %v", err)
	}
	if sp.Damping.Mode != async.DampAuto || sp.Damping.Omega != 0.9 || !sp.Damping.Rollback {
		t.Errorf("auto policy decoded as %+v", sp.Damping)
	}
	sp, err = solve.Parse([]byte(
		`{"problem":"7pt","size":5,"mode":"async","damping":"fixed","damp_omega":0.5}`))
	if err != nil {
		t.Fatalf("good fixed request rejected: %v", err)
	}
	if sp.Damping.Mode != async.DampFixed || sp.Damping.Omega != 0.5 {
		t.Errorf("fixed policy decoded as %+v", sp.Damping)
	}
}

// TestServeAsyncDamped exercises the damped async modes end to end: the
// response carries the damping telemetry, and a bad policy is a 400 at
// the HTTP surface.
func TestServeAsyncDamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	for _, body := range []string{
		`{"problem":"7pt","size":6,"mode":"async","cycles":20,"damping":"auto","damp_rollback":true}`,
		`{"problem":"7pt","size":6,"mode":"async","cycles":20,"damping":"fixed","damp_omega":0.7}`,
	} {
		out, code := postSolveBody(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", body, code)
		}
		if out.RolledBack {
			t.Errorf("%s: unperturbed solve rolled back", body)
		}
		if out.MinOmega <= 0 || out.MinOmega > 1 {
			t.Errorf("%s: min_omega %v out of (0, 1]", body, out.MinOmega)
		}
		if out.Diverged || math.IsNaN(out.RelRes) {
			t.Errorf("%s: diverged (relres %v)", body, out.RelRes)
		}
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"problem":"7pt","size":6,"mode":"async","damping":"sideways"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy name: status %d, want 400", resp.StatusCode)
	}
}
