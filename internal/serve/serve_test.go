package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
	"asyncmg/internal/sparse"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSolve(t *testing.T, url string, req SolveRequest) (*SolveResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
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

// TestServeConcurrentClients is the end-to-end contract under -race:
// concurrent clients over one hierarchy share the cache (one setup build),
// each solves alone, and every client gets bitwise the answer a private
// engine would have produced.
func TestServeConcurrentClients(t *testing.T) {
	o := obs.New(16)
	_, ts := newTestServer(t, Config{Workers: 16, Observer: o})

	const size, cycles, clients = 6, 6, 6
	// Private reference engine: identical problem, options and smoother.
	a := grid.Laplacian7pt(size)
	ref, err := engine.New(a, amg.DefaultOptions(), smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatalf("reference setup: %v", err)
	}

	var wg sync.WaitGroup
	results := make([]*SolveResponse, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, code := postSolve(t, ts.URL, SolveRequest{
				Problem: "7pt", Size: size, Method: "mult",
				Cycles: cycles, Seed: int64(c), ReturnX: true,
			})
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
				return
			}
			results[c] = out
		}(c)
	}
	wg.Wait()

	misses, hits := 0, 0
	for c, out := range results {
		if out == nil {
			t.Fatalf("client %d got no result", c)
		}
		if out.Cache == "hit" {
			hits++
		} else {
			misses++
		}
		// Only the builder pays for the setup.
		if (out.Cache == "hit") != (out.SetupNS == 0) {
			t.Errorf("client %d: cache %q with setup_ns %d", c, out.Cache, out.SetupNS)
		}
		if out.Batched != 1 {
			t.Errorf("client %d: batched %d, want 1 (every request solves alone)", c, out.Batched)
		}
		// Bitwise identity with a private solve, through JSON.
		b := grid.RandomRHS(a.Rows, int64(c))
		wantX, wantH := ref.Solve(engine.Mult, b, cycles)
		if len(out.History) != len(wantH) {
			t.Fatalf("client %d: history length %d, want %d", c, len(out.History), len(wantH))
		}
		for i := range wantH {
			if out.History[i] != wantH[i] {
				t.Fatalf("client %d: history[%d] = %v, want %v", c, i, out.History[i], wantH[i])
			}
		}
		for i := range wantX {
			if out.X[i] != wantX[i] {
				t.Fatalf("client %d: x[%d] = %v, want %v", c, i, out.X[i], wantX[i])
			}
		}
	}
	// Singleflight: exactly one client built the hierarchy.
	if misses != 1 || hits != clients-1 {
		t.Errorf("cache misses = %d, hits = %d, want 1 and %d", misses, hits, clients-1)
	}
	if got := o.SetupBuilds.Load(); got != 1 {
		t.Errorf("setup_builds_total = %d, want 1", got)
	}
}

// TestServeModes covers the sync, async and dist solve modes over one
// shared cache entry, and the 400 for the removed no_batch field.
func TestServeModes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8})
	base := SolveRequest{Problem: "7pt", Size: 5, Cycles: 8, Seed: 1}

	sy := base
	sy.Method = "mult"
	out, code := postSolve(t, ts.URL, sy)
	if code != http.StatusOK || out.Batched != 1 {
		t.Fatalf("sync solve: status %d, response %+v", code, out)
	}
	// Request coalescing is gone and so is its opt-out: the decoder
	// rejects unknown fields, so a client still sending it gets a 400.
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"problem":"7pt","size":5,"no_batch":true}`))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no_batch request: status %d, want 400", resp.StatusCode)
	}

	as := base
	as.Mode = "async"
	as.Method = "multadd"
	as.Threads = 8
	out, code = postSolve(t, ts.URL, as)
	if code != http.StatusOK {
		t.Fatalf("async solve: status %d", code)
	}
	if out.Cache != "hit" {
		t.Errorf("async solve after sync: cache %q, want hit (same hierarchy)", out.Cache)
	}
	if out.RelRes >= 1 || out.RelRes <= 0 {
		t.Errorf("async relres = %v, want in (0, 1)", out.RelRes)
	}

	ds := base
	ds.Mode = "dist"
	ds.Method = "multadd"
	out, code = postSolve(t, ts.URL, ds)
	if code != http.StatusOK {
		t.Fatalf("dist solve: status %d", code)
	}
	if out.RelRes >= 1 || out.RelRes <= 0 {
		t.Errorf("dist relres = %v, want in (0, 1)", out.RelRes)
	}

	// Unsupported dist method is a client error.
	bad := base
	bad.Mode = "dist"
	bad.Method = "mult"
	if _, code = postSolve(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Errorf("dist+mult: status %d, want 400", code)
	}
}

// TestServeMatrixUpload checks the upload path: a gzip-compressed
// MatrixMarket body solves, and the identical plain body lands on the
// same cache entry (fingerprints are computed post-decompression).
func TestServeMatrixUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	a := grid.Laplacian7pt(4)
	var plain bytes.Buffer
	if err := mtx.Write(&plain, a); err != nil {
		t.Fatalf("mtx.Write: %v", err)
	}
	var gzBody bytes.Buffer
	zw := gzip.NewWriter(&gzBody)
	zw.Write(plain.Bytes())
	zw.Close()

	url := ts.URL + "/solve/matrix?method=mult&cycles=5&seed=2"
	req, _ := http.NewRequest("POST", url, bytes.NewReader(gzBody.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("gzip upload: %v", err)
	}
	var out SolveResponse
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("gzip upload: status %d: %s", resp.StatusCode, b)
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Cache != "miss" || out.Rows != a.Rows {
		t.Fatalf("gzip upload: cache %q rows %d, want miss/%d", out.Cache, out.Rows, a.Rows)
	}

	resp, err = http.Post(url, "text/plain", bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatalf("plain upload: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Cache != "hit" {
		t.Errorf("plain upload of the same matrix: cache %q, want hit", out.Cache)
	}
}

// TestServeUploadRunsUint32Views: the engine a /solve/matrix upload caches
// runs every level on uint32-indexed CSR views, and the response's
// hierarchy_bytes is their CSR formula, 12·nnz + 4·(rows+1) per float64
// matrix (Pᵀ and P̄ᵀ included), with each row-length-ordered P̄ at 12·nnz
// + 4·rows plus 12 bytes per length class.
func TestServeUploadRunsUint32Views(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var body bytes.Buffer
	if err := mtx.Write(&body, grid.Laplacian7pt(10)); err != nil {
		t.Fatalf("mtx.Write: %v", err)
	}
	resp, err := http.Post(ts.URL+"/solve/matrix?method=multadd&cycles=3", "text/plain", &body)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var out SolveResponse
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || s.cache.len() != 1 {
		t.Fatalf("upload: status %d, %d cached entries", resp.StatusCode, s.cache.len())
	}
	var e *engine.Engine
	for _, ent := range s.cache.entries {
		e = ent.setup
	}
	if e.NumLevels() < 2 {
		t.Fatalf("%d levels: no interpolant to check", e.NumLevels())
	}
	want := 0
	for k, a := range e.Ops {
		m, ok := a.(*op.CSR[float64, uint32])
		if !ok {
			t.Fatalf("level %d operator is a %T", k, a)
		}
		want += 12*m.M.NNZ() + 4*(m.M.Rows+1)
	}
	for k, itp := range e.Itp {
		c, ok := itp.(*op.CSRInterp[float64, uint32])
		if !ok {
			t.Fatalf("interpolant view %d is a %T", k, itp)
		}
		for _, m := range []*sparse.Matrix[float64, uint32]{c.P, c.PT} {
			want += 12*m.NNZ() + 4*(m.Rows+1)
		}
	}
	for k, itp := range e.SItp {
		c, ok := itp.(*op.OrderedInterp[float64, uint32])
		if !ok {
			t.Fatalf("smoothed interpolant view %d is a %T", k, itp)
		}
		want += 12*len(c.Vals) + 4*len(c.Row) + 12*len(c.Class) + 12*c.PT.NNZ() + 4*(c.PT.Rows+1)
	}
	if out.HierarchyBytes != want {
		t.Errorf("hierarchy_bytes = %d, want %d by the CSR formula", out.HierarchyBytes, want)
	}
}

// TestServeOversizedCoarsestLevel: a diagonal upload does not coarsen,
// so its one level is also the coarsest. At 40 000 rows (half a megabyte
// of MatrixMarket text) a dense LU of it would take 12.8 GB; the setup
// skips the factorization and the coarse solve smooths instead, so the
// request answers 200 with a converged residual.
func TestServeOversizedCoarsestLevel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const n = 40000
	var body bytes.Buffer
	fmt.Fprintf(&body, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&body, "%d %d %d\n", i, i, 1+i%5)
	}
	resp, err := http.Post(ts.URL+"/solve/matrix?method=mult", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != n || out.Levels != 1 {
		t.Fatalf("rows %d levels %d, want %d rows on 1 level", out.Rows, out.Levels, n)
	}
	if !(out.RelRes < 1e-8) || out.Diverged {
		t.Errorf("relres %v (diverged %v) after %d cycles, want < 1e-8", out.RelRes, out.Diverged, out.Cycles)
	}
}

// TestServeBackpressure checks admission control: with one worker and a
// queue of two, a burst gets some 429s while admitted requests finish.
func TestServeBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 2})
	// Warm the cache, then park a slow solve on the single worker so the
	// burst below finds the queue occupied.
	if _, code := postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 2,
	}); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}
	slow := make(chan int, 1)
	go func() {
		_, code := postSolve(t, ts.URL, SolveRequest{
			Problem: "7pt", Size: 10, Method: "mult", Cycles: 3000,
		})
		slow <- code
	}()
	time.Sleep(50 * time.Millisecond) // let it occupy the worker

	const burst = 10
	var ok, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, code := postSolve(t, ts.URL, SolveRequest{
				Problem: "7pt", Size: 10, Method: "mult", Cycles: 2,
				Seed: int64(c),
			})
			switch code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				other.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("slow solve: status %d", code)
	}
	if other.Load() != 0 {
		t.Fatalf("unexpected statuses: ok=%d rejected=%d other=%d", ok.Load(), rejected.Load(), other.Load())
	}
	if rejected.Load() == 0 {
		t.Errorf("burst of %d with queue 2 produced no 429s", burst)
	}
	if ok.Load() == 0 {
		t.Errorf("burst of %d produced no successes", burst)
	}
}

// TestServeCancellation: a client abandoning a slow solve mid-flight must
// not wedge the server; later requests on the same hierarchy succeed.
func TestServeCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 3000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Log("request finished before cancellation (fast machine), still fine")
	}
	// The server must still serve.
	out, code := postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 3,
	})
	if code != http.StatusOK {
		t.Fatalf("post-cancellation solve: status %d", code)
	}
	if out.Cache != "hit" {
		t.Errorf("post-cancellation solve: cache %q, want hit", out.Cache)
	}
}

// TestServeTimeout checks per-request deadlines: an impossible budget
// returns 504, and the entry remains usable.
func TestServeTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, code := postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 10000,
		TimeoutMS: 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms budget: status %d, want 504", code)
	}
	if _, code = postSolve(t, ts.URL, SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 2,
	}); code != http.StatusOK {
		t.Fatalf("after timeout: status %d, want 200", code)
	}
}

// TestServeGracefulDrain runs a real listener: Shutdown lets the in-flight
// solve finish with a 200 while new requests are refused with 503.
func TestServeGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	// Warm the cache so the in-flight request is solve-only.
	if _, code := postSolve(t, url, SolveRequest{
		Problem: "7pt", Size: 10, Method: "mult", Cycles: 2,
	}); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}

	inflight := make(chan int, 1)
	go func() {
		_, code := postSolve(t, url, SolveRequest{
			Problem: "7pt", Size: 10, Method: "mult", Cycles: 400,
		})
		inflight <- code
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the solver

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// Post-drain admission is a deterministic 503 via the handler.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/solve", strings.NewReader(`{"problem":"7pt","size":5}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain solve: status %d, want 503", rec.Code)
	}
	// Liveness stays green through the drain (a load balancer must not
	// kill a draining node); readiness goes red (it must unroute it).
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-drain healthz: status %d, want 200 (liveness, not readiness)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Errorf("post-drain healthz body %q does not report draining", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain readyz: status %d, want 503", rec.Code)
	}
}

// TestHealthReadySplit pins the probe semantics on a serving node: both
// green before drain, only liveness green after.
func TestHealthReadySplit(t *testing.T) {
	s := New(Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s on a fresh server: status %d, want 200", path, rec.Code)
		}
	}
}

// TestRetryAfterFromLoad pins the 429 Retry-After computation: with no
// latency history the hint is the legacy 1s; with a recorded solve
// latency it scales with queue depth over worker count and stays clamped.
func TestRetryAfterFromLoad(t *testing.T) {
	s := New(Config{Workers: 2, MaxQueue: 4})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("cold Retry-After = %d, want 1", got)
	}
	s.recordSolveNS((500 * time.Millisecond).Nanoseconds())
	s.queued.Store(4)
	// 4 queued / 2 workers → 3 rounds of 500ms → 1.5s → ceil 2s.
	if got := s.retryAfterSeconds(); got != 2 {
		t.Errorf("loaded Retry-After = %d, want 2", got)
	}
	s.recordSolveNS((1000 * time.Hour).Nanoseconds())
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("pathological Retry-After = %d, want the 60s clamp", got)
	}
}

// TestRetryAfterHeaderOnBackpressure checks the wire: a 429 carries a
// numeric Retry-After computed from load, not the old hardcoded "1".
func TestRetryAfterHeaderOnBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1})
	s.recordSolveNS((3 * time.Second).Nanoseconds())
	s.queued.Store(1) // the queue is full when the next request arrives
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/solve", strings.NewReader(`{"problem":"7pt","size":5}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: status %d, want 429", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	sec, err := strconv.Atoi(ra)
	if err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	// 1 queued (full) + this request / 1 worker → at least 2 rounds of 3s.
	if sec < 6 {
		t.Errorf("Retry-After = %ds, want >= 6 (queue depth × 3s latency)", sec)
	}
}

// TestWarmProblem checks replication warming of a generated problem: a
// warm carries the /solve JSON body the router forwarded, the first warm
// builds, the second reports cached, and a subsequent solve is a pure
// cache hit.
func TestWarmProblem(t *testing.T) {
	o := obs.New(16)
	_, ts := newTestServer(t, Config{Workers: 2, Observer: o})
	warm := func() WarmResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/internal/warm", "application/json",
			strings.NewReader(`{"problem":"7pt","size":5,"method":"mult","cycles":3}`))
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("warm: status %d: %s", resp.StatusCode, b)
		}
		var out WarmResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	if w := warm(); w.Cached || w.SetupNS <= 0 {
		t.Fatalf("first warm: %+v, want a fresh build", w)
	}
	if w := warm(); !w.Cached || w.SetupNS != 0 {
		t.Fatalf("second warm: %+v, want cached no-op", w)
	}
	out, code := postSolve(t, ts.URL, SolveRequest{Problem: "7pt", Size: 5, Method: "mult", Cycles: 3})
	if code != http.StatusOK || out.Cache != "hit" {
		t.Fatalf("solve after warm: status %d cache %q, want 200/hit", code, out.Cache)
	}
	if got := o.Warms.Load(); got != 2 {
		t.Errorf("serve_warms_total = %d, want 2", got)
	}
}

// TestWarmUploadJoinsSolve: a warm replaying a gzip upload and a plain
// /solve/matrix of the same matrix, sent together, share one build. Both
// answer 200 and the node misses its cache once. The warm carries the
// bytes, so neither request can fail on anything but the matrix itself.
func TestWarmUploadJoinsSolve(t *testing.T) {
	o := obs.New(16)
	_, ts := newTestServer(t, Config{Workers: 2, Observer: o})
	var plain, gz bytes.Buffer
	if err := mtx.Write(&plain, grid.Laplacian7pt(6)); err != nil {
		t.Fatalf("mtx.Write: %v", err)
	}
	zw := gzip.NewWriter(&gz)
	zw.Write(plain.Bytes())
	zw.Close()

	var wg sync.WaitGroup
	for i, url := range []string{"/internal/warm?" + WarmUpload + "=1&method=mult&cycles=3", "/solve/matrix?method=mult&cycles=3"} {
		body := plain.Bytes()
		if i == 0 {
			body = gz.Bytes()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+url, "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", url, err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", url, resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	if got := o.CacheMisses.Load(); got != 1 {
		t.Errorf("serve_cache_misses_total = %d, want 1 (one build for the warm and the solve)", got)
	}
	if got := o.Warms.Load(); got != 1 {
		t.Errorf("serve_warms_total = %d, want 1", got)
	}
}

// TestServeCacheEviction: an LRU of one evicts on the second distinct
// problem and the counters add up on /metrics.
func TestServeCacheEviction(t *testing.T) {
	o := obs.New(16)
	s, ts := newTestServer(t, Config{Workers: 2, CacheSize: 1, Observer: o})
	for _, size := range []int{4, 5, 4} {
		if _, code := postSolve(t, ts.URL, SolveRequest{
			Problem: "7pt", Size: size, Method: "mult", Cycles: 2,
		}); code != http.StatusOK {
			t.Fatalf("size %d: status %d", size, code)
		}
	}
	if got := o.CacheMisses.Load(); got != 3 {
		t.Errorf("cache_misses = %d, want 3 (LRU of 1 thrashes)", got)
	}
	if got := o.CacheEvictions.Load(); got != 2 {
		t.Errorf("cache_evictions = %d, want 2", got)
	}
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"serve_cache_misses_total 3",
		"serve_cache_evictions_total 2",
		"serve_requests_total 3",
		"setup_builds_total 3",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeBadRequests walks the 4xx surface.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"garbage":         {"not json", http.StatusBadRequest},
		"unknown field":   {`{"problem":"7pt","size":5,"bogus":1}`, http.StatusBadRequest},
		"unknown problem": {`{"problem":"9pt","size":5}`, http.StatusBadRequest},
		"no problem":      {`{"size":5}`, http.StatusBadRequest},
		"bad mode":        {`{"problem":"7pt","size":5,"mode":"quantum"}`, http.StatusBadRequest},
		"bad rhs length":  {`{"problem":"7pt","size":4,"rhs":[1,2,3]}`, http.StatusBadRequest},
		"negative size":   {`{"problem":"7pt","size":-3}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	// Uploads that are not a matrix. Two are a size line alone: 58 bytes
	// declaring five million entries, and five million rows with no
	// entries. The last is a symmetric 2x1 matrix, whose mirrored entry
	// once panicked the reader.
	for _, body := range []string{
		"hello",
		"%%MatrixMarket matrix coordinate real general\n1 1 5000000\n",
		"%%MatrixMarket matrix coordinate real general\n5000000 5000000 0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 1 2\n2 1 0\n1 1 1\n",
	} {
		resp, err := http.Post(ts.URL+"/solve/matrix", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("bad upload: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad upload %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSpecDefaults pins the request→spec defaulting rules.
func TestSpecDefaults(t *testing.T) {
	sp, err := solve.Parse([]byte(`{"problem":"mfem-laplace","size":8}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sp.Method != engine.Multadd || sp.Mode != solve.ModeSync || sp.Cycles != 30 || sp.Async.Threads != 8 {
		t.Errorf("defaults wrong: %+v", sp)
	}
	if sp.Smoother.Omega != 0.5 {
		t.Errorf("mfem omega = %v, want the family default 0.5", sp.Smoother.Omega)
	}
	if _, err := solve.Parse([]byte(fmt.Sprintf(`{"problem":"7pt","size":%d}`, 1<<21))); err == nil {
		t.Error("oversized problem accepted")
	}
}

// TestDistMethodRefusedBeforeSetup: a dist request with a method the
// message-passing simulation cannot run is a 400 from validation, before
// it takes a worker slot or builds a hierarchy.
func TestDistMethodRefusedBeforeSetup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, method := range []string{"mult", "bpx"} {
		body := fmt.Sprintf(`{"problem":"7pt","size":6,"mode":"dist","method":%q}`, method)
		if _, code := postSolveBody(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("dist + %s: status %d, want 400", method, code)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("cache_entries = %d after refused requests, want 0", n)
	}
	if _, code := postSolveBody(t, ts.URL, `{"problem":"7pt","size":6,"mode":"dist","method":"afacx","cycles":4}`); code != http.StatusOK {
		t.Errorf("dist + afacx: status %d, want 200", code)
	}
}

// TestServeFamiliesMatchLibrarySetup: every family the service accepts is
// built by the library's one per-family setup rule, so /solve reports the
// levels and hierarchy bytes the library builds (elasticity's three
// displacement components included).
func TestServeFamiliesMatchLibrarySetup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sizes := map[string]int{"7pt": 6, "27pt": 5, "mfem-laplace": 4, "mfem-elasticity": 3, "conv-diff": 6}
	for _, p := range problem.Known() {
		size, ok := sizes[p]
		if !ok {
			t.Fatalf("no test size for family %q", p)
		}
		got, code := postSolve(t, ts.URL, SolveRequest{Problem: p, Size: size, Cycles: 1})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", p, code)
		}
		a, err := problem.Build(p, size)
		if err != nil {
			t.Fatal(err)
		}
		smo := smoother.Config{Kind: smoother.WJacobi, Omega: problem.DefaultOmega(p), Blocks: 1}
		want, err := engine.New(a, problem.Options(p, amg.DefaultOptions()), smo)
		if err != nil {
			t.Fatal(err)
		}
		if got.Levels != want.NumLevels() || got.HierarchyBytes != want.HierarchyBytes() {
			t.Errorf("%s: served %d levels / %d B, library %d levels / %d B",
				p, got.Levels, got.HierarchyBytes, want.NumLevels(), want.HierarchyBytes())
		}
	}
}

// TestServeVerdict: every 200 carries the solve's verdict, and a 422
// answers exactly the Diverged one: a residual past 1e10 that is still
// finite (ω = 2 Mult for 15 cycles) is refused like an overflowed one.
func TestServeVerdict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		body    string
		code    int
		verdict string
	}{
		{`{"problem":"7pt","size":8,"method":"mult","cycles":10}`, http.StatusOK, "converged"},
		{`{"problem":"7pt","size":8,"method":"mult","omega":2,"cycles":5}`, http.StatusOK, "grew"},
		{`{"problem":"7pt","size":8,"solver":"pcg","tol":1e-8,"maxiter":1}`, http.StatusOK, "stalled"},
		{`{"problem":"7pt","size":8,"method":"mult","omega":2,"cycles":15}`, http.StatusUnprocessableEntity, ""},
	} {
		out, code := postSolveBody(t, ts.URL, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.body, code, tc.code)
			continue
		}
		if out != nil && (out.Verdict != tc.verdict || out.Converged != (tc.verdict == "converged") || out.Diverged) {
			t.Errorf("%s: verdict %q converged %v diverged %v, want %q", tc.body, out.Verdict, out.Converged, out.Diverged, tc.verdict)
		}
	}

	// A 422's text names the rule that fired, and for a damped solve the
	// damping telemetry its JSON fields would have carried.
	for _, tc := range []struct{ body, want string }{
		{`{"problem":"7pt","size":8,"method":"mult","omega":2,"cycles":3000}`,
			"solve diverged: non-finite iterate or relres\n"},
		{`{"problem":"7pt","size":8,"mode":"async","threads":2,"method":"multadd","omega":2,"cycles":200,"damping":"fixed","damp_omega":0.9,"damp_rollback":true}`,
			"solve diverged: rolled back to the initial guess (damp_tightens 0, min_omega 0.9)\n"},
	} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || string(msg) != tc.want {
			t.Errorf("%s: status %d %q, want 422 %q", tc.body, resp.StatusCode, msg, tc.want)
		}
	}
}

// TestServeNonFinite: what JSON cannot carry never reaches the encoder.
// An upload with a NaN or Inf entry is refused before setup (400), like a
// non-square one, and a solve that diverges to an infinite residual
// answers 422 with a reason — not a 200 with an empty body.
func TestServeNonFinite(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct{ size, entry, want string }{
		{"2 2", "1 1 nan", "non-finite"},
		{"2 2", "1 1 inf", "non-finite"},
		{"2 2", "1 1 -inf", "non-finite"},
		{"2 3", "1 3 1", "want square"},
	} {
		body := "%%MatrixMarket matrix coordinate real general\n" + tc.size + " 2\n" + tc.entry + "\n2 2 1\n"
		resp, err := http.Post(ts.URL+"/solve/matrix?method=mult", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s upload with %q: status %d %q, want 400 with %q", tc.size, tc.entry, resp.StatusCode, msg, tc.want)
		}
	}

	const diverging = `{"problem":"7pt","size":8,"omega":2,"method":"mult","cycles":3000}`
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(diverging))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "non-finite") {
		t.Errorf("diverging solve: status %d %q, want 422 naming the non-finite field", resp.StatusCode, msg)
	}

	w := httptest.NewRecorder()
	writeJSON(w, SolveResponse{RelRes: math.Inf(1)})
	if w.Code != http.StatusInternalServerError || w.Body.Len() == 0 {
		t.Errorf("writeJSON of +Inf: status %d, %d-byte body; want 500 with the error", w.Code, w.Body.Len())
	}
}
