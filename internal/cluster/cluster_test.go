package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncmg/internal/fault"
	"asyncmg/internal/grid"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/serve"
)

// The acceptance matrix of the cluster tier, run against an in-process
// fleet: N serve.Server handlers on a LocalTransport behind
// fault.HTTPChaos, so node crashes, partitions, stragglers and restarts
// replay deterministically under -race. No sockets, no sleep-and-hope
// membership: tests drive ProbeNow explicitly.

type testCluster struct {
	t      *testing.T
	lt     *LocalTransport
	chaos  *fault.HTTPChaos
	client *http.Client
	obs    []*obs.Observer
	srvs   []*serve.Server
	rt     *Router
}

func newTestCluster(t *testing.T, n int, mut func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, lt: NewLocalTransport()}
	tc.chaos = fault.NewHTTPChaos(fault.HTTPConfig{Seed: 7}, tc.lt)
	tc.client = &http.Client{Transport: tc.chaos}
	cfg := Config{
		Replicas:         2,
		Client:           tc.client,
		ProbeInterval:    -1, // membership transitions via ProbeNow only
		HedgeAfter:       10 * time.Millisecond,
		RetryBase:        5 * time.Millisecond,
		RetryAfterCap:    20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             7,
	}
	for i := 0; i < n; i++ {
		tc.startNode(i)
		cfg.Nodes = append(cfg.Nodes, Node{Addr: fmt.Sprintf("node%d", i)})
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.rt = rt
	t.Cleanup(rt.Close)
	return tc
}

// startNode registers a fresh serve.Server as node i — on a restart this
// models the process coming back with an empty cache under its old name.
func (tc *testCluster) startNode(i int) {
	o := obs.New(16)
	s := serve.New(serve.Config{Observer: o, PeerClient: tc.client})
	tc.lt.Register(fmt.Sprintf("node%d", i), s.Handler())
	if i < len(tc.obs) {
		tc.obs[i], tc.srvs[i] = o, s
		return
	}
	tc.obs = append(tc.obs, o)
	tc.srvs = append(tc.srvs, s)
}

func (tc *testCluster) restart(i int) {
	tc.startNode(i)
	tc.chaos.Restart(fmt.Sprintf("node%d", i))
}

func (tc *testCluster) solve(size int) *httptest.ResponseRecorder {
	body := fmt.Sprintf(`{"problem":"7pt","size":%d,"cycles":4}`, size)
	req := httptest.NewRequest("POST", "/solve", strings.NewReader(body))
	w := httptest.NewRecorder()
	tc.rt.Handler().ServeHTTP(w, req)
	return w
}

func (tc *testCluster) mustSolve(size int) serve.SolveResponse {
	tc.t.Helper()
	w := tc.solve(size)
	if w.Code != http.StatusOK {
		tc.t.Fatalf("solve size %d: status %d: %s", size, w.Code, w.Body.String())
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		tc.t.Fatalf("solve size %d: bad response: %v", size, err)
	}
	return resp
}

func (tc *testCluster) key(size int) string {
	return ShardKey(&serve.SolveRequest{Problem: "7pt", Size: size})
}

// sizeOwnedBy finds a problem size whose primary owner is node idx on
// the current ring (so faults can be aimed at a known shard).
func (tc *testCluster) sizeOwnedBy(idx int) int {
	tc.t.Helper()
	for size := 5; size < 64; size++ {
		if own := tc.rt.Owners(tc.key(size)); len(own) > 0 && own[0] == idx {
			return size
		}
	}
	tc.t.Fatalf("no size in [5,64) hashes to node %d", idx)
	return 0
}

// TestAffinityAndReplicaWarm: repeat solves of one problem hit one
// node's cache, the replica is warmed in the background, and after the
// primary is killed the promoted replica serves the shard cache-hot —
// the failover never pays the AMG setup.
func TestAffinityAndReplicaWarm(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	const size = 6
	if r := tc.mustSolve(size); r.Cache != "miss" {
		t.Fatalf("first solve: cache %q, want miss", r.Cache)
	}
	if r := tc.mustSolve(size); r.Cache != "hit" {
		t.Fatalf("second solve: cache %q, want hit (affinity broken)", r.Cache)
	}
	tc.rt.Quiesce()
	if n := tc.rt.Observer().ReplicaWarms.Load(); n != 1 {
		t.Fatalf("replica warms = %d, want 1", n)
	}
	var warms int64
	for _, o := range tc.obs {
		warms += o.Warms.Load()
	}
	if warms != 1 {
		t.Fatalf("node-side warms = %d, want 1", warms)
	}

	owners := tc.rt.Owners(tc.key(size))
	tc.chaos.Kill(fmt.Sprintf("node%d", owners[0]))
	tc.rt.ProbeNow()
	r := tc.mustSolve(size)
	if r.Cache != "hit" {
		t.Fatalf("post-kill solve: cache %q, want hit (replication failed)", r.Cache)
	}
	if got := tc.rt.Owners(tc.key(size))[0]; got != owners[1] {
		t.Fatalf("promoted primary = node%d, want old replica node%d", got, owners[1])
	}
}

// TestKillMidSolveHedgeSucceeds: the primary straggles, a hedge fires
// against the warm replica, and the primary is killed while the original
// attempt is still in flight. The client sees a clean 200 — zero
// accepted requests are lost to the crash.
func TestKillMidSolveHedgeSucceeds(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	const size = 7
	tc.mustSolve(size)
	tc.rt.Quiesce() // replica warm before the chaos starts
	primary := fmt.Sprintf("node%d", tc.rt.Owners(tc.key(size))[0])

	tc.chaos.Straggle(primary, 300*time.Millisecond)
	if r := tc.mustSolve(size); r.Cache != "hit" {
		t.Fatalf("hedged solve: cache %q, want hit on the warm replica", r.Cache)
	}
	if n := tc.rt.Observer().RouteHedgeWins.Load(); n < 1 {
		t.Fatalf("hedge wins = %d, want >= 1", n)
	}

	// Now the crash: kill lands while the straggling attempt is in
	// flight. The hedge (or failover) still answers.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- tc.solve(size) }()
	time.Sleep(30 * time.Millisecond)
	tc.chaos.Kill(primary)
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("kill mid-solve lost the request: status %d: %s", w.Code, w.Body.String())
	}
}

// TestRestartRepopulatesCache: a killed node comes back empty; the ring
// gives it back its exact old shards, replication re-warms it, and
// traffic lands cache-hot again.
func TestRestartRepopulatesCache(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	sz0 := tc.sizeOwnedBy(0)
	sizes := []int{sz0, sz0 + 1, sz0 + 2}
	for _, s := range sizes {
		tc.mustSolve(s)
	}
	tc.rt.Quiesce()

	tc.chaos.Kill("node0")
	tc.rt.ProbeNow()
	for _, s := range sizes {
		tc.mustSolve(s) // survivors carry the load
	}
	if st := tc.rt.Status(); st.ReadyNodes != 2 {
		t.Fatalf("ready nodes after kill = %d, want 2", st.ReadyNodes)
	}

	rebuilds := tc.rt.Observer().RingRebuilds.Load()
	tc.restart(0)
	tc.rt.ProbeNow()
	if n := tc.rt.Observer().RingRebuilds.Load(); n != rebuilds+1 {
		t.Fatalf("ring rebuilds after restart = %d, want %d", n, rebuilds+1)
	}
	if got := tc.rt.Owners(tc.key(sz0))[0]; got != 0 {
		t.Fatalf("node0 did not reclaim its shard (primary = node%d)", got)
	}

	// First solve after restart rebuilds on the cold node; the second is
	// a hit — the cache repopulated.
	if r := tc.mustSolve(sz0); r.Cache != "miss" {
		t.Fatalf("restarted node's first solve: cache %q, want miss (cold cache)", r.Cache)
	}
	if r := tc.mustSolve(sz0); r.Cache != "hit" {
		t.Fatalf("restarted node's second solve: cache %q, want hit", r.Cache)
	}
	tc.rt.Quiesce()
	if n := tc.obs[0].Warms.Load() + tc.obs[0].CacheMisses.Load(); n == 0 {
		t.Fatal("restarted node saw neither warms nor builds; repopulation did not happen")
	}
}

// TestFullPartitionFallsBackToLocal: with every node unreachable the
// router degrades to its embedded engine instead of failing, and resumes
// forwarding after the partition heals.
func TestFullPartitionFallsBackToLocal(t *testing.T) {
	localObs := obs.New(16)
	local := serve.New(serve.Config{Observer: localObs})
	tc := newTestCluster(t, 2, func(c *Config) { c.Local = local })

	tc.chaos.Partition("node0", "node1")
	tc.rt.ProbeNow()
	if st := tc.rt.Status(); st.ReadyNodes != 0 {
		t.Fatalf("ready nodes under full partition = %d, want 0", st.ReadyNodes)
	}
	if r := tc.mustSolve(6); r.Cache != "miss" {
		t.Fatalf("local fallback solve: cache %q, want miss", r.Cache)
	}
	if n := tc.rt.Observer().RouteLocalFallbacks.Load(); n != 1 {
		t.Fatalf("local fallbacks = %d, want 1", n)
	}
	if localObs.Requests.Load() == 0 {
		t.Fatal("local engine saw no request")
	}

	tc.chaos.Heal()
	tc.rt.ProbeNow()
	tc.mustSolve(6)
	if n := tc.rt.Observer().RouteLocalFallbacks.Load(); n != 1 {
		t.Fatalf("healed cluster still falling back locally (%d fallbacks)", n)
	}
}

// TestDrainRebalanceZeroFailures: a node drains mid-load. Its in-flight
// solves finish, new traffic fails over to the replicas after its 503s,
// the readiness probe rebuilds the ring without it — and not one request
// fails.
func TestDrainRebalanceZeroFailures(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	sizes := []int{5, 6, 7}
	for _, s := range sizes {
		tc.mustSolve(s) // pre-warm so the load phase measures routing, not setup
	}
	tc.rt.Quiesce()

	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if w := tc.solve(sizes[(g+i)%len(sizes)]); w.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("request failed during drain: %d %s", w.Code, w.Body.String())
				}
			}
		}(g)
	}
	time.Sleep(15 * time.Millisecond)
	if err := tc.srvs[0].Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tc.rt.ProbeNow()
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during drain, want 0", n)
	}
	st := tc.rt.Status()
	if st.ReadyNodes != 2 {
		t.Fatalf("ready nodes after drain = %d, want 2", st.ReadyNodes)
	}
	for _, ns := range st.Nodes {
		if ns.Addr == "node0" && (!ns.Live || ns.Ready) {
			t.Fatalf("draining node0: live=%t ready=%t, want live and not ready", ns.Live, ns.Ready)
		}
	}
	if n := tc.rt.Observer().RingRebuilds.Load(); n < 2 {
		t.Fatalf("ring rebuilds = %d, want >= 2 (initial + drain)", n)
	}
}

// TestBreakerRoutesAroundDeadNode: with no replica to fail over to
// (RF=1), a dead node opens its breaker after the threshold and later
// requests skip it for free, landing on the local engine; when the node
// returns, the readiness transition closes the breaker and forwarding
// resumes.
func TestBreakerRoutesAroundDeadNode(t *testing.T) {
	local := serve.New(serve.Config{})
	tc := newTestCluster(t, 2, func(c *Config) {
		c.Replicas = 1
		c.HedgeAfter = -1 // isolate the breaker: no hedging
		c.Local = local
	})
	size := tc.sizeOwnedBy(0)
	tc.chaos.Kill("node0") // no ProbeNow: membership still trusts it

	for i := 0; i < 3; i++ {
		tc.mustSolve(size) // all served, via retry sweeps + local fallback
	}
	o := tc.rt.Observer()
	if o.BreakerOpens.Load() < 1 {
		t.Fatalf("breaker opens = %d, want >= 1", o.BreakerOpens.Load())
	}
	if o.BreakerRejects.Load() < 1 {
		t.Fatalf("breaker rejects = %d, want >= 1", o.BreakerRejects.Load())
	}
	if o.RouteLocalFallbacks.Load() != 3 {
		t.Fatalf("local fallbacks = %d, want 3", o.RouteLocalFallbacks.Load())
	}

	tc.rt.ProbeNow() // membership finally notices the corpse
	tc.restart(0)
	tc.rt.ProbeNow() // not-ready -> ready transition resets the breaker
	before := o.RouteLocalFallbacks.Load()
	tc.mustSolve(size)
	if o.RouteLocalFallbacks.Load() != before {
		t.Fatal("recovered node still bypassed")
	}
	if tc.obs[0].Requests.Load() == 0 {
		t.Fatal("recovered node received no traffic")
	}
}

// TestRouterHonors429RetryAfter: a 429 with Retry-After is an overload
// signal, not a failure — the router waits out the (capped) hint and
// retries the same node instead of failing over.
func TestRouterHonors429RetryAfter(t *testing.T) {
	lt := NewLocalTransport()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /solve", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"cache":"hit"}`))
	})
	lt.Register("stub", mux)
	rt, err := New(Config{
		Nodes:         []Node{{Addr: "stub"}},
		Replicas:      1,
		Client:        &http.Client{Transport: lt},
		ProbeInterval: -1,
		RetryBase:     time.Millisecond,
		RetryAfterCap: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	start := time.Now()
	req := httptest.NewRequest("POST", "/solve", strings.NewReader(`{"problem":"7pt","size":5}`))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after honoring Retry-After", w.Code)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("retry came back after %v; Retry-After hint not honored", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("node saw %d calls, want 2 (429 then success)", calls.Load())
	}
	if rt.Observer().RouteRetries.Load() < 1 {
		t.Fatal("429 retry not counted")
	}
	if rt.Observer().RouteFailovers.Load() != 0 {
		t.Fatal("429 triggered a failover instead of a same-node retry")
	}
}

func TestRetryAfterDelayCap(t *testing.T) {
	rt := &Router{cfg: Config{RetryBase: 5 * time.Millisecond, RetryAfterCap: 100 * time.Millisecond}}
	h := make(http.Header)
	if d := rt.retryAfterDelay(h); d != 5*time.Millisecond {
		t.Fatalf("no header: delay %v, want RetryBase", d)
	}
	h.Set("Retry-After", "2")
	if d := rt.retryAfterDelay(h); d != 100*time.Millisecond {
		t.Fatalf("Retry-After 2s: delay %v, want the 100ms cap", d)
	}
	h.Set("Retry-After", "junk")
	if d := rt.retryAfterDelay(h); d != 5*time.Millisecond {
		t.Fatalf("junk header: delay %v, want RetryBase", d)
	}
}

// TestAliasSpellingsShareAShard: spellings of one request that the node
// resolves to one hierarchy (an omitted smoother or "jacobi", an omitted ω
// or the family default, an empty omega= query parameter or 0.9) have one
// shard key, so with one owner per shard the second spelling lands on the
// node the first one warmed and hits its cache.
func TestAliasSpellingsShareAShard(t *testing.T) {
	for _, pair := range [][2]serve.SolveRequest{
		{{Problem: "7pt", Size: 6}, {Problem: "7pt", Size: 6, Smoother: "jacobi"}},
		{{Problem: "7pt", Size: 6}, {Problem: "7pt", Size: 6, Smoother: "W-Jacobi", Omega: 0.9}},
		{{Problem: "mfem-laplace", Size: 4}, {Problem: "mfem-laplace", Size: 4, Omega: 0.5}},
		{{Problem: "27pt", Size: 5, Smoother: "l1"}, {Problem: "27pt", Size: 5, Smoother: "l1-jacobi"}},
	} {
		a, b := ShardKey(&pair[0]), ShardKey(&pair[1])
		if a == "" || a != b {
			t.Errorf("%+v and %+v: shard keys %q and %q", pair[0], pair[1], a, b)
		}
	}
	if ShardKey(&serve.SolveRequest{Problem: "7pt", Size: 6, Smoother: "l1"}) == ShardKey(&serve.SolveRequest{Problem: "7pt", Size: 6}) {
		t.Error("different smoothers share a shard key")
	}

	tc := newTestCluster(t, 3, func(c *Config) { c.Replicas = 1 })
	post := func(path, body string) serve.SolveResponse {
		t.Helper()
		w := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, w.Code, w.Body.String())
		}
		var resp serve.SolveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var upload strings.Builder
	if err := mtx.Write(&upload, grid.Laplacian7pt(4)); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][2]string{
		{{"/solve", `{"problem":"7pt","size":6,"cycles":2}`}, {"/solve", `{"problem":"7pt","size":6,"cycles":2,"smoother":"jacobi","omega":0.9}`}},
		{{"/solve/matrix?cycles=2&omega=", upload.String()}, {"/solve/matrix?cycles=2&omega=0.9&smoother=jacobi", upload.String()}},
	} {
		if r := post(pair[0][0], pair[0][1]); r.Cache != "miss" {
			t.Fatalf("%s: cache %q, want miss", pair[0][0], r.Cache)
		}
		if r := post(pair[1][0], pair[1][1]); r.Cache != "hit" {
			t.Errorf("%s after %s: cache %q, want hit on the same owner", pair[1][0], pair[0][0], r.Cache)
		}
	}
}

// TestDivergenceIsFinal: a node answers a solve that diverges to an
// infinite residual with 422. A status below 500 is the request's own
// fault, so the router passes it on after one node attempt instead of
// retrying the divergence on every replica.
func TestDivergenceIsFinal(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) { c.HedgeAfter = time.Minute })
	w := httptest.NewRecorder()
	body := `{"problem":"7pt","size":8,"omega":2,"method":"mult","cycles":3000}`
	tc.rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/solve", strings.NewReader(body)))
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "non-finite") {
		t.Fatalf("status %d %q, want 422 naming the non-finite field", w.Code, w.Body.String())
	}
	var attempts int64
	for _, o := range tc.obs {
		attempts += o.Requests.Load()
	}
	if attempts != 1 || tc.rt.Observer().RouteRetries.Load() != 0 || tc.rt.Observer().RouteFailovers.Load() != 0 {
		t.Errorf("%d node attempts, %d retries, %d failovers; want one attempt",
			attempts, tc.rt.Observer().RouteRetries.Load(), tc.rt.Observer().RouteFailovers.Load())
	}
}
