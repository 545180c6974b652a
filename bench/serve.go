package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/cluster"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/mtx"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/serve"
	"asyncmg/internal/sparse"
)

// The service workloads: closed-loop HTTP clients in this process against an
// in-process server (or router + nodes). The service is driven only through
// its HTTP surface and judged only by what it returns.

// ---- span plumbing across HTTP ----

// spanRef names the span that caused a request, carried in a header over a
// socket and in the request context through the in-process transport.
type spanRef struct{ req, span int64 }

type spanCtxKey struct{}

const spanHeader = "X-Bench-Span"

func (s spanRef) header() string { return fmt.Sprintf("%d:%d", s.req, s.span) }

func refOf(r *http.Request) spanRef {
	if v, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		return v
	}
	var s spanRef
	fmt.Sscanf(r.Header.Get(spanHeader), "%d:%d", &s.req, &s.span)
	return s
}

// traceSwitch lets the untraced and the traced slices of one run share a
// server: the wrappers below record only while a tracer is installed.
type traceSwitch = atomic.Pointer[tracer]

// teeWriter keeps a copy of the response body so the wrapper can read what
// the service reported about its own work.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}

// nodeHandler wraps a solver node: one span per request, with the setup and
// solve time the node reports as children, so the span's self time is the
// node's own overhead (decode, queue, batch window, encode).
func nodeHandler(ts *traceSwitch, hits *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := ts.Load()
		if tr == nil || r.Method != http.MethodPost || r.URL.Path == "/internal/warm" {
			next.ServeHTTP(w, r)
			return
		}
		hits.Add(1)
		ref := refOf(r)
		sp := tr.begin("node.handler", ref.span, ref.req)
		tw := &teeWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)
		rec := sp.end()
		var rep struct {
			SetupNS int64 `json:"setup_ns"`
			SolveNS int64 `json:"solve_ns"`
		}
		if json.Unmarshal(tw.buf.Bytes(), &rep) == nil {
			tr.tail(rec, reported{"node.setup", rep.SetupNS}, reported{"node.solve", rep.SolveNS})
		}
	})
}

// routerHandler wraps the cluster router's handler and hands its span to the
// node transport through the request context.
func routerHandler(ts *traceSwitch, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := ts.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		ref := refOf(r)
		sp := tr.begin("router.handler", ref.span, ref.req)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{sp.req, sp.id})
		next.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// nodeTransport wraps the router's transport to the nodes: one span per
// forwarded solve (hedges and failovers each get their own).
type nodeTransport struct {
	ts    *traceSwitch
	inner http.RoundTripper
}

func (nt *nodeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := nt.ts.Load()
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if tr == nil || !ok {
		return nt.inner.RoundTrip(r)
	}
	sp := tr.begin("router.node_rt", ref.span, ref.req)
	defer sp.end()
	return nt.inner.RoundTrip(r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{sp.req, sp.id})))
}

// ---- the service under test ----

// fleet is what a service workload talks to: a URL, plus handles for the
// numbers the service emits about itself.
type fleet struct {
	url      string
	keys     []hotKey // the cached problems of the hot stream
	ups      []upload // the matrices serve-churn uploads
	ts       *traceSwitch
	nodeHits []*atomic.Int64
	router   *cluster.Router
	close    func()
}

// newServeFleet is one serve.Server with default configuration behind a
// real loopback HTTP server.
func newServeFleet() (*fleet, error) {
	f := &fleet{ts: &traceSwitch{}, nodeHits: []*atomic.Int64{new(atomic.Int64)}}
	hs := httptest.NewServer(nodeHandler(f.ts, f.nodeHits[0], serve.New(serve.Config{}).Handler()))
	f.url = hs.URL
	f.close = hs.Close
	return f, nil
}

// newClusterFleet is the cluster router over three in-process nodes on a
// LocalTransport, RF=2, no injected faults, behind a loopback HTTP server.
func newClusterFleet() (*fleet, error) {
	f := &fleet{ts: &traceSwitch{}}
	lt := cluster.NewLocalTransport()
	client := &http.Client{Transport: &nodeTransport{ts: f.ts, inner: lt}}
	cfg := cluster.Config{Replicas: 2, Client: client}
	for i := 0; i < 3; i++ {
		srv := serve.New(serve.Config{PeerClient: client})
		hits := new(atomic.Int64)
		host := fmt.Sprintf("node%d", i)
		lt.Register(host, nodeHandler(f.ts, hits, srv.Handler()))
		f.nodeHits = append(f.nodeHits, hits)
		cfg.Nodes = append(cfg.Nodes, cluster.Node{Addr: host})
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	f.router = rt
	hs := httptest.NewServer(routerHandler(f.ts, rt.Handler()))
	f.url = hs.URL
	f.close = func() { hs.Close(); rt.Close() }
	return f, nil
}

// ---- requests ----

// hotKey is one cached problem of the hot stream.
type hotKey struct {
	problem string
	size    int
}

func hotKeys(sz sizes) []hotKey {
	return []hotKey{{"7pt", sz.serveSmall}, {"27pt", sz.serveSmall}, {"7pt", sz.serveLarge}, {"27pt", sz.serveLarge}}
}

func (k hotKey) name() string { return fmt.Sprintf("%s-%d", k.problem, k.size) }

func (k hotKey) matrix() *sparse.CSR {
	if k.problem == "27pt" {
		return grid.Laplacian27pt(k.size)
	}
	return grid.Laplacian7pt(k.size)
}

// request is one generated request and, once sent, what came back.
type request struct {
	index   int
	key     int  // hot key index, or upload matrix index
	upload  bool // POST /solve/matrix
	pcg     bool
	returnX bool
	seed    int64

	status  int
	latency float64 // seconds, client side, wall
	granted float64 // share of CPU granted over the window it ran in (see cpuMark.since)
	resp    serve.SolveResponse
}

// The end-to-end times of a finished request, in seconds: the client-side
// latency and what the service reported, less the share of CPU withheld. A
// request is far shorter than a tick of the CPU counters, so the share is
// that of its whole window.
func (rq *request) lat() float64   { return rq.latency * rq.granted }
func (rq *request) solve() float64 { return float64(rq.resp.SolveNS) / 1e9 * rq.granted }
func (rq *request) setup() float64 { return float64(rq.resp.SetupNS) / 1e9 * rq.granted }

// upload is one pre-generated matrix upload.
type upload struct {
	a   *sparse.CSR
	gz  []byte // what is sent
	raw []byte // the decompressed MatrixMarket text
}

// hotRequest generates request i of the hot stream over the given keys:
// 3:1 cycle:pcg, multadd, fresh right-hand-side seed. Every 20th request (the
// first included) carries return_x for the oracle; those take key and solver
// in turn instead of at random, so that what the oracle samples, and with it
// the median behind digits, has the same make-up for every seed.
func hotRequest(gen generator, i int, nKeys int) *request {
	r := gen.rng("request", i)
	rq := &request{index: i, key: r.Intn(nKeys), pcg: r.Intn(4) == 0, returnX: i%20 == 0, seed: 1 + r.Int63n(1<<40)}
	if rq.returnX {
		rq.key, rq.pcg = (i/20)%nKeys, (i/20/nKeys)%4 == 3
	}
	return rq
}

func (rq *request) jsonBody(k hotKey) []byte {
	body := serve.SolveRequest{Problem: k.problem, Size: k.size, Method: "multadd", Seed: rq.seed, ReturnX: rq.returnX}
	if rq.pcg {
		body.Solver, body.Tol = "pcg", tauCycle
	} else {
		body.Cycles = serveCycle
	}
	data, _ := json.Marshal(body)
	return data
}

// makeUploads generates the churn matrices: the 7pt Laplacian with a
// seed-derived relative perturbation of the diagonal (it stays a symmetric
// M-matrix), written as gzip MatrixMarket. A new seed gives new bytes, so no
// upload is ever served from a previous run's cache.
func makeUploads(gen generator, n, count int) ([]upload, error) {
	out := make([]upload, count)
	for j := range out {
		a := grid.Laplacian7pt(n)
		r := gen.rng("upload", j)
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if a.ColIdx[p] == i {
					a.Vals[p] *= 1 + 1e-3*r.Float64()
				}
			}
		}
		var raw, gz bytes.Buffer
		if err := mtx.Write(&raw, a); err != nil {
			return nil, err
		}
		zw := gzip.NewWriter(&gz)
		zw.Write(raw.Bytes())
		if err := zw.Close(); err != nil {
			return nil, err
		}
		out[j] = upload{a: a, gz: gz.Bytes(), raw: raw.Bytes()}
	}
	return out, nil
}

// send performs the request and records status, latency and the decoded
// reply. The client span is the root of the request's trace.
func (rq *request) send(tr *tracer, client *http.Client, f *fleet) {
	var hr *http.Request
	if rq.upload {
		q := url.Values{"method": {"multadd"}, "cycles": {strconv.Itoa(serveCycle)}, "seed": {strconv.FormatInt(rq.seed, 10)}}
		if rq.returnX {
			q.Set("return_x", "true")
		}
		hr, _ = http.NewRequest(http.MethodPost, f.url+"/solve/matrix?"+q.Encode(), bytes.NewReader(f.ups[rq.key].gz))
		hr.Header.Set("Content-Encoding", "gzip")
	} else {
		hr, _ = http.NewRequest(http.MethodPost, f.url+"/solve", bytes.NewReader(rq.jsonBody(f.keys[rq.key])))
		hr.Header.Set("Content-Type", "application/json")
	}
	sp := tr.begin("client.request", 0, 0)
	if tr != nil {
		hr.Header.Set(spanHeader, spanRef{sp.req, sp.id}.header())
	}
	start := time.Now()
	resp, err := client.Do(hr)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rq.status = resp.StatusCode
		if err == nil && rq.status == http.StatusOK {
			err = json.Unmarshal(body, &rq.resp)
		}
	}
	if err != nil {
		rq.status = -1
	}
	rq.latency = time.Since(start).Seconds()
	sp.end()
}

// minRequests is how many requests a measured window completes at least,
// however slow the machine: enough for both kinds of serve-churn request to
// have carried return_x, so the oracle always has a sample.
const minRequests = 8

// drive runs C closed-loop clients over the request stream next(i), starting
// at index base, for the given time and at least minRequests requests. It
// returns the finished requests and the length of the window, less the share
// of CPU withheld during it.
func (rc *runCtx) drive(tr *tracer, seconds float64, base int, f *fleet, next func(i int) *request) ([]*request, float64) {
	clients := rc.clients
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var idx atomic.Int64
	idx.Store(int64(base))
	var mu sync.Mutex
	var done []*request
	var wg sync.WaitGroup
	cpu := markCPU()
	deadline := cpu.at.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*request
			for {
				i := int(idx.Add(1) - 1)
				if i >= base+minRequests && !time.Now().Before(deadline) {
					break
				}
				rq := next(i)
				rq.send(tr, client, f)
				mine = append(mine, rq)
			}
			mu.Lock()
			done = append(done, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	window := time.Since(cpu.at).Seconds()
	granted, _ := cpu.since()
	for _, rq := range done {
		rq.granted = granted
	}
	return done, window * granted
}

// ---- checking ----

// reference is the library's answer for the same (problem, cycles, seed),
// computed by the bench on its own setup.
type reference struct {
	mu   sync.Mutex
	engs map[string]*engine.Engine
}

func (ref *reference) engine(rc *runCtx, name string, a *sparse.CSR) (*engine.Engine, error) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if e := ref.engs[name]; e != nil {
		return e, nil
	}
	set, err := rc.coldSetupCSR(nil, a, amg.DefaultOptions(), wjacobi(0.9))
	if err != nil {
		return nil, err
	}
	if ref.engs == nil {
		ref.engs = map[string]*engine.Engine{}
	}
	ref.engs[name] = set.eng
	return set.eng, nil
}

// libRelRes solves the request with the library directly and returns the
// recomputed relative residual of the library's iterate.
func (ref *reference) libRelRes(rc *runCtx, name string, a *sparse.CSR, rq *request, b []float64) (float64, error) {
	eng, err := ref.engine(rc, name, a)
	if err != nil {
		return 0, err
	}
	var x []float64
	if rq.pcg {
		x, _, _, err = rc.pcgSolve(nil, eng, engine.Multadd, b, tauCycle)
		if err != nil {
			return 0, err
		}
	} else {
		x, _ = eng.Solve(engine.Multadd, b, serveCycle)
	}
	return trueRelRes(op.FromCSR(a), b, x), nil
}

// checkRequests applies the request failure rule and returns the recomputed
// relative residuals of the requests that carried return_x. wantHit says
// whether a cache hit is guaranteed for the request.
func (rc *runCtx) checkRequests(o *outcome, ref *reference, reqs []*request, f *fleet, wantHit func(*request) bool) []float64 {
	var relres []float64
	for _, rq := range reqs {
		o.attempted++
		switch {
		case rq.status != http.StatusOK:
			o.fail("request %d: status %d", rq.index, rq.status)
			continue
		case wantHit(rq) && rq.resp.Cache != "hit":
			o.fail("request %d: cache=%q where a hit is guaranteed", rq.index, rq.resp.Cache)
			continue
		case rq.resp.Diverged:
			o.fail("request %d: diverged", rq.index)
			continue
		}
		if !rq.returnX {
			continue
		}
		var name string
		var a *sparse.CSR
		if rq.upload {
			name, a = fmt.Sprintf("upload-%d", rq.key), f.ups[rq.key].a
		} else {
			name, a = f.keys[rq.key].name(), f.keys[rq.key].matrix()
		}
		b := grid.RandomRHS(a.Rows, rq.seed)
		rel := trueRelRes(op.FromCSR(a), b, rq.resp.X)
		lib, err := ref.libRelRes(rc, name, a, rq, b)
		if err != nil || !(rel <= 1.01*lib) || math.Abs(rq.resp.RelRes-rel) > 0.01*rel+1e-15 {
			o.fail("request %d: recomputed relres %.3e, library %.3e, reported %.3e, err=%v", rq.index, rel, lib, rq.resp.RelRes, err)
		}
		relres = append(relres, rel)
	}
	return relres
}

// ---- metrics ----

func latencies(reqs []*request) []float64 {
	var out []float64
	for _, rq := range reqs {
		if rq.status == http.StatusOK {
			out = append(out, rq.lat())
		}
	}
	return out
}

// fillRequestMetrics derives the end-to-end metrics of a service workload
// from the requests of one measured window. A window in which the oracle
// checked nothing is an error, not a result.
func (rc *runCtx) fillRequestMetrics(o *outcome, reqs []*request, window float64, relres []float64) error {
	if len(relres) == 0 {
		return fmt.Errorf("none of the %d requests of the window came back with return_x for the oracle to check", len(reqs))
	}
	lat := latencies(reqs)
	var solve, its []float64
	hier := map[string]int{}
	for _, rq := range reqs {
		if rq.status != http.StatusOK {
			continue
		}
		solve = append(solve, rq.solve())
		its = append(its, float64(max(rq.resp.Cycles, rq.resp.Iterations)))
		hier[rq.resp.Problem+"/"+strconv.Itoa(rq.resp.Rows)] = rq.resp.HierarchyBytes
	}
	hi, p := hiPercentile(solve)
	rc.notef("C=%d closed-loop clients; solve_hi_s is p%.1f of n=%d requests", rc.clients, 100*p, len(solve))
	o.e2e["solve_s"] = median(solve)
	o.e2e["solve_hi_s"] = hi
	o.e2e["iters"] = mean(its)
	o.e2e["digits"] = digits(median(relres))
	hb := 0
	for _, v := range hier {
		hb += v
	}
	o.e2e["hier_mb"] = float64(hb) / 1e6
	o.e2e["req_per_s"] = float64(len(lat)) / window
	o.e2e["req_p50_ms"] = 1e3 * median(lat)
	o.e2e["req_p90_ms"] = 1e3 * percentile(lat, 0.9)
	return nil
}

// warm sends one request per hot key (the misses that pay for setup) and
// returns the setup time the misses reported.
func warm(f *fleet) (float64, error) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	setup := 0.0
	for k := range f.keys {
		rq := &request{index: -1, key: k, seed: int64(k + 1)}
		rq.send(nil, client, f)
		if rq.status != http.StatusOK {
			return 0, fmt.Errorf("warm-up request for key %d: status %d", k, rq.status)
		}
		setup += float64(rq.resp.SetupNS) / 1e9
	}
	if f.router != nil {
		f.router.Quiesce()
	}
	return setup, nil
}

// warmedFleet builds the service several times, warming each, and returns
// the last one with the median of the warm-up setup times, less the share of
// CPU withheld over all the warm-ups (one is too short to say). The fleet it
// returns has also seen a little of the stream, so connections and pools are
// warm.
func warmedFleet(rc *runCtx, build func() (*fleet, error), keys []hotKey, stream func(i int) *request) (*fleet, float64, error) {
	var f *fleet
	var ts []float64
	cpu := markCPU()
	for i := 0; i < rc.sz.fleets; i++ {
		if f != nil {
			f.close()
		}
		var err error
		if f, err = build(); err != nil {
			return nil, 0, err
		}
		f.keys = keys
		t, err := warm(f)
		if err != nil {
			f.close()
			return nil, 0, err
		}
		ts = append(ts, t)
	}
	// Each miss sets up alone, the setup's workers fork and join: see stopwatch.
	_, allRunning := cpu.since()
	setupS := median(ts) * allRunning
	if stream != nil {
		rc.drive(nil, min(1, rc.seconds/4), 1<<30, f, stream)
	}
	return f, setupS, nil
}

// windows runs the measured window: all of rc.seconds untraced, or, on a
// traced run, alternating untraced and traced slices (0.4 and 0.6 of the
// time), so that both kinds see the same machine conditions.
func (rc *runCtx) windows(f *fleet, next func(i int) *request) (plain, traced []*request, plainS float64, mark int) {
	if rc.tr == nil {
		plain, plainS = rc.drive(nil, rc.seconds, 0, f, next)
		return plain, nil, plainS, 0
	}
	mark = rc.tr.mark()
	rounds := max(int(rc.seconds/2), 1)
	slice := rc.seconds / float64(rounds)
	for r := 0; r < rounds; r++ {
		reqs, s := rc.drive(nil, 0.4*slice, len(plain)+len(traced), f, next)
		plain, plainS = append(plain, reqs...), plainS+s
		f.ts.Store(rc.tr)
		reqs, _ = rc.drive(rc.tr, 0.6*slice, len(plain)+len(traced), f, next)
		f.ts.Store(nil)
		traced = append(traced, reqs...)
	}
	return plain, traced, plainS, mark
}

// ---- serve-hot and cluster-hot ----

func runServeHot(rc *runCtx) (*outcome, error) { return runHot(rc, newServeFleet) }

func runClusterHot(rc *runCtx) (*outcome, error) { return runHot(rc, newClusterFleet) }

// runHot drives the hot stream: four cached keys, every request a hit.
func runHot(rc *runCtx, build func() (*fleet, error)) (*outcome, error) {
	par.SetWorkers(0)
	o := newOutcome()
	gen := generator{rc.seed}
	keys := hotKeys(rc.sz)
	stream := func(i int) *request { return hotRequest(gen, i, len(keys)) }
	f, setupS, err := warmedFleet(rc, build, keys, stream)
	if err != nil {
		return nil, err
	}
	defer f.close()
	before, err := scrape(f.url)
	if err != nil {
		return nil, err
	}
	plain, traced, plainS, mark := rc.windows(f, stream)
	ref := &reference{}
	always := func(*request) bool { return true }
	relres := rc.checkRequests(o, ref, plain, f, always)
	o.e2e["setup_s"] = setupS
	if err := rc.fillRequestMetrics(o, plain, plainS, relres); err != nil {
		return nil, err
	}
	if traced == nil {
		return o, nil
	}
	rc.checkRequests(o, ref, traced, f, always)
	self, _ := rc.traceMetrics(o, "client.request", mark, latencies(plain), latencies(traced))
	n := float64(len(latencies(traced)))
	after, err := scrape(f.url)
	if err != nil {
		return nil, err
	}
	if f.router != nil {
		o.layer["cluster.hop_ms"] = 1e3 * (self["router.handler"] + self["router.node_rt"]) / n
		o.layer["cluster.hedges"] = after["cluster_hedges_total"] - before["cluster_hedges_total"]
		o.layer["cluster.failovers"] = after["cluster_failovers_total"] - before["cluster_failovers_total"]
		o.layer["cluster.warm_pushes"] = after["cluster_replica_warms_total"]
		most, total := int64(0), int64(0)
		for _, h := range f.nodeHits {
			most, total = max(most, h.Load()), total+h.Load()
		}
		o.layer["cluster.node_share_max"] = float64(most) / float64(total)
		return o, nil
	}
	all := append(append([]*request(nil), plain...), traced...)
	o.layer["serve.overhead_ms"] = 1e3 * self["node.handler"] / n
	var solve, big []float64
	hits, batched, count := 0.0, 0.0, 0.0
	largest := len(keys) - 1
	for _, rq := range all {
		if rq.status != http.StatusOK {
			continue
		}
		count++
		solve = append(solve, 1e3*rq.solve())
		batched += float64(rq.resp.Batched)
		if rq.resp.Cache == "hit" {
			hits++
		}
		if rq.key == largest && !rq.pcg {
			big = append(big, rq.solve())
		}
	}
	o.layer["serve.solve_ms"] = median(solve)
	o.layer["serve.cache_hit_ratio"] = hits / count
	o.layer["serve.batch_mean_k"] = batched / count
	o.layer["serve.rejected_429"] = after["serve_rejected_total"]
	o.layer["serve.req_p99_ms"] = 1e3 * percentile(latencies(all), 0.99)
	// The same solve through the library directly: same problem, same
	// cycles, alone on the machine.
	k := keys[largest]
	a := k.matrix()
	eng, err := ref.engine(rc, k.name(), a)
	if err != nil {
		return nil, err
	}
	b := gen.rhs(a.Rows, "lib", 0)
	lib := timeIt(rc.sz.probeBudget, func() { eng.Solve(engine.Multadd, b, serveCycle) })
	o.layer["serve.solve_over_lib"] = median(big) / lib
	return o, nil
}

// scrape reads the plain counters and gauges of a /metrics exposition.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// ---- serve-churn ----

// churnUploads is how many distinct matrices rotate through the uploads:
// more than the cache holds, so every upload is a miss and an eviction.
const churnUploads = 12

// runServeChurn mixes the hot stream with matrix uploads. Every fourth
// request is an upload (so the median request is a hit and the 90th
// percentile is a miss), and the hot part uses only the two larger keys: the
// cache holds 8 entries, and with C clients reordering requests, two hot keys
// stay resident under any interleaving while four would not.
func runServeChurn(rc *runCtx) (*outcome, error) {
	par.SetWorkers(0)
	o := newOutcome()
	gen := generator{rc.seed}
	keys := hotKeys(rc.sz)[2:]
	ups, err := makeUploads(gen, rc.sz.uploadN, churnUploads)
	if err != nil {
		return nil, err
	}
	stream := func(i int) *request {
		rq := hotRequest(gen, i, len(keys))
		if i%4 == 3 {
			rq.upload, rq.pcg, rq.key = true, false, (i/4)%churnUploads
			rq.returnX = (i/4)%5 == 0
		}
		return rq
	}
	f, _, err := warmedFleet(rc, newServeFleet, keys, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.ups = ups
	plain, traced, plainS, mark := rc.windows(f, stream)
	ref := &reference{}
	hot := func(rq *request) bool { return !rq.upload }
	relres := rc.checkRequests(o, ref, plain, f, hot)
	if err := rc.fillRequestMetrics(o, plain, plainS, relres); err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(missSetups(plain))
	if traced == nil {
		return o, nil
	}
	rc.checkRequests(o, ref, traced, f, hot)
	rc.traceMetrics(o, "client.request", mark, latencies(plain), latencies(traced))
	all := append(append([]*request(nil), plain...), traced...)
	o.layer["serve.miss_setup_ms"] = 1e3 * median(missSetups(all))
	upBytes, upSec, hits, count := 0.0, 0.0, 0.0, 0.0
	for _, rq := range all {
		if rq.status != http.StatusOK {
			continue
		}
		count++
		if rq.resp.Cache == "hit" {
			hits++
		}
		if rq.upload {
			upBytes += float64(len(ups[rq.key].raw))
			upSec += rq.lat()
		}
	}
	o.layer["serve.upload_mbps"] = upBytes / upSec / 1e6
	o.layer["serve.churn_hit_ratio"] = hits / count
	parse := timeIt(rc.sz.probeBudget, func() { mtx.Read(bytes.NewReader(ups[0].raw)) })
	o.layer["mtx.parse_mbps"] = float64(len(ups[0].raw)) / parse / 1e6
	return o, nil
}

// missSetups is the setup time of every request that reported a miss.
func missSetups(reqs []*request) []float64 {
	var out []float64
	for _, rq := range reqs {
		if rq.status == http.StatusOK && rq.resp.Cache == "miss" {
			out = append(out, rq.setup())
		}
	}
	return out
}
