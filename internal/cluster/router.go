// Package cluster is the fault-tolerant routing tier over a fleet of
// mgserve nodes. A Router consistent-hashes each solve's problem
// fingerprint onto its owner nodes (hierarchy affinity keeps the owners'
// setup caches hot), replicates hot hierarchies to secondary owners so a
// failover never pays the AMG setup again, and degrades gracefully when
// nodes misbehave: deadline-aware retry sweeps with jittered exponential
// backoff, hedged requests against replicas when the primary straggles,
// per-node circuit breaking, and — when the whole fleet is unreachable —
// a fallback to a local solver engine. Membership is health-checked
// (liveness vs readiness/drain are distinct signals) and drives ring
// rebuilds. Every random decision is seeded through fault.Jitter01, so a
// chaos run (faulttest.HTTPChaos under the router's HTTP client) replays
// deterministically under -race.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"asyncmg/internal/fault"
	"asyncmg/internal/obs"
	"asyncmg/internal/serve"
)

// Config tunes the cluster router. The zero value of every field picks a
// sensible default; Nodes (or Local) is the only required input.
type Config struct {
	// Nodes is the fleet (at most 64; the replication bookkeeping is a
	// bitmask per key).
	Nodes []Node
	// Replicas is how many owners each shard has: the primary plus
	// Replicas-1 warm secondaries (default 2).
	Replicas int
	// Client performs all node traffic — forwards, probes, warms. Point
	// it at a faulttest.HTTPChaos (over a LocalTransport for in-process
	// fleets) to run the acceptance matrix deterministically (default
	// http.DefaultClient).
	Client *http.Client
	// ProbeInterval paces the background membership prober (default 1s;
	// negative disables it — tests call probeAll explicitly).
	ProbeInterval time.Duration
	// HedgeAfter is how long the first attempt may run before a hedge is
	// launched against the next owner (default 50ms; negative disables
	// hedging).
	HedgeAfter time.Duration
	// RetryBase seeds the jittered exponential backoff between sweeps
	// (default 25ms).
	RetryBase time.Duration
	// RetryAfterCap bounds how long the router honors a node's 429
	// Retry-After hint (default 2s; keeps chaos tests fast).
	RetryAfterCap time.Duration
	// BreakerThreshold is consecutive failures before a node's circuit
	// opens (default 3); BreakerCooldown how long it stays open before a
	// half-open probe (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxTimeout caps one routed request end to end, sweeps and backoffs
	// included (default 60s).
	MaxTimeout time.Duration
	// Seed determines every jitter decision (sweep backoff), for
	// reproducible chaos runs.
	Seed int64
	// Observer receives routing metrics (default: fresh; exposed at
	// /metrics).
	Observer *obs.Observer
	// Local is an optional embedded solver engine: the last rung of the
	// degradation ladder when no node is reachable. Nil means a fully
	// partitioned router answers 502.
	Local *serve.Server
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 50 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Observer == nil {
		c.Observer = obs.New(16)
	}
	return c
}

// Router is the routing tier. Create with New, mount Handler, stop with
// Close.
type Router struct {
	cfg    Config
	o      *obs.Observer
	client *http.Client
	local  *serve.Server
	nodes  []*nodeState
	mux    *http.ServeMux

	mu         sync.RWMutex // guards ring + memberMask
	ring       *ring
	memberMask uint64

	probeMu   sync.Mutex
	probeWG   sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	// warmed[key] is a bitmask of node indices already (or being) warmed
	// for that shard; bits clear when a node leaves and returns, or when
	// a push fails.
	warmMu sync.Mutex
	warmed map[string]uint64
	warmWG sync.WaitGroup
}

// New builds a router and runs one synchronous membership probe round,
// so the ring reflects reality before the first request.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 && cfg.Local == nil {
		return nil, errors.New("cluster: need at least one node or a local engine")
	}
	if len(cfg.Nodes) > 64 {
		return nil, fmt.Errorf("cluster: %d nodes exceeds the 64-node limit", len(cfg.Nodes))
	}
	rt := &Router{
		cfg:    cfg,
		o:      cfg.Observer,
		client: cfg.Client,
		local:  cfg.Local,
		done:   make(chan struct{}),
		warmed: make(map[string]uint64),
	}
	for _, n := range cfg.Nodes {
		if n.ID == "" {
			n.ID = n.Addr
		}
		rt.nodes = append(rt.nodes, &nodeState{
			node:    n,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /solve", func(w http.ResponseWriter, r *http.Request) { rt.handleSolve(w, r, false) })
	rt.mux.HandleFunc("POST /solve/matrix", func(w http.ResponseWriter, r *http.Request) { rt.handleSolve(w, r, true) })
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /cluster", rt.handleCluster)
	rt.probeAll()
	if cfg.ProbeInterval > 0 {
		rt.probeWG.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Quiesce waits for in-flight replication warm pushes to finish. Call it
// between load phases when warm-driven cache state must be settled.
func (rt *Router) Quiesce() { rt.warmWG.Wait() }

// Close stops the prober and waits for background work.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.probeWG.Wait()
	rt.warmWG.Wait()
}

// ---- endpoints ----

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"ready_nodes\":%d}\n", rt.readyCount())
}

// handleReadyz: the router is ready when it can place a request
// somewhere — any ready node, or the local fallback engine.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.readyCount() == 0 && rt.local == nil {
		http.Error(w, "no ready nodes", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ready\",\"ready_nodes\":%d}\n", rt.readyCount())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.o.WriteText(w)
}

func (rt *Router) readyCount() int {
	n := 0
	for _, ns := range rt.nodes {
		if ns.ready.Load() {
			n++
		}
	}
	return n
}

// NodeStatus is one node's row in the /cluster topology report.
type NodeStatus struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Ready   bool   `json:"ready"`
	Live    bool   `json:"live"`
	Breaker string `json:"breaker"`
}

// Status is the /cluster topology report.
type Status struct {
	Nodes      []NodeStatus `json:"nodes"`
	Replicas   int          `json:"replicas"`
	ReadyNodes int          `json:"ready_nodes"`
}

// Status snapshots the router's view of the fleet.
func (rt *Router) Status() Status {
	st := Status{Replicas: rt.cfg.Replicas}
	for _, ns := range rt.nodes {
		ready := ns.ready.Load()
		if ready {
			st.ReadyNodes++
		}
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:      ns.node.ID,
			Addr:    ns.node.Addr,
			Ready:   ready,
			Live:    ns.live.Load(),
			Breaker: ns.breaker.stateName(),
		})
	}
	return st
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Status())
}

// handleSolve shards a solve, or with upload a matrix upload, on its
// hierarchy identity and routes it. The router reads the request with the
// node's own reader (serve.ReadRequest), so a bad request is refused
// before any hop and the shard key is the node's cache key: spellings of
// one hierarchy, and repeat uploads of one operator, compressed or not,
// land on one node. The body is forwarded as received.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request, upload bool) {
	req, status, err := serve.ReadRequest(r, upload)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	fwd := &forwardReq{
		path:   r.URL.Path,
		query:  r.URL.RawQuery,
		body:   req.Raw,
		header: copyHeaders(r.Header, "Content-Type", "Content-Encoding"),
	}
	if upload {
		fwd.warmQuery = serve.WarmUpload + "=1&" + r.URL.RawQuery
	}
	rt.route(w, r, fwd, req.Key)
}

func copyHeaders(from http.Header, keys ...string) http.Header {
	h := make(http.Header, len(keys))
	for _, k := range keys {
		if v := from.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	return h
}

// ---- the routing core ----

// forwardReq is one request as forwarded to nodes: attempts may race, so
// the body is a replayable byte slice, never a stream. A replica's warm
// replays it to /internal/warm with warmQuery, which marks an upload.
type forwardReq struct {
	path      string
	query     string
	warmQuery string
	body      []byte
	header    http.Header
}

// captured is a node's buffered response.
type captured struct {
	status int
	header http.Header
	body   []byte
}

// ok reports whether the response should be returned to the client as
// is. 4xx (other than 429) is a deterministic client error — every node
// would say the same — while 5xx and 429-after-retry mean this node
// failed us and a replica might not.
func (c *captured) ok() bool {
	return c.status < 500 && c.status != http.StatusTooManyRequests
}

func (c *captured) write(w http.ResponseWriter) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := c.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(c.status)
	w.Write(c.body)
}

// route runs the degradation ladder for one request: owner sweeps with
// hedging and failover, then the local engine, then the least-bad
// buffered response.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, fwd *forwardReq, key string) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.MaxTimeout)
	defer cancel()
	cap, winner := rt.forward(ctx, fwd, key)
	if cap != nil && cap.ok() {
		cap.write(w)
		if cap.status == http.StatusOK && winner >= 0 {
			rt.warmReplicas(key, winner, fwd)
		}
		return
	}
	// Degraded: no owner could serve this. Solve locally if we can.
	if rt.local != nil {
		rt.o.RouteLocalFallbacks.Inc()
		rt.serveLocal(w, r, fwd)
		return
	}
	if cap != nil {
		cap.write(w)
		return
	}
	http.Error(w, "no ready nodes and no local engine", http.StatusBadGateway)
}

// retrySweeps is how many passes over the owner set a request gets
// before degrading. Later sweeps re-read the ring, which is what lets a
// request started before a kill finish after the rebuild.
const retrySweeps = 3

// forward tries up to retrySweeps passes over the current owner set,
// with jittered exponential backoff between passes. Each pass re-reads
// the ring, so a membership change mid-request (kill, drain, recovery)
// redirects the remaining attempts.
func (rt *Router) forward(ctx context.Context, fwd *forwardReq, key string) (*captured, int) {
	rt.o.RouteForwards.Inc()
	var last *captured
	for s := 0; s < retrySweeps; s++ {
		if s > 0 {
			rt.o.RouteRetries.Inc()
			if !sleepCtx(ctx, rt.sweepBackoff(s, key)) {
				break
			}
		}
		owners := rt.Owners(key)
		if len(owners) == 0 {
			break
		}
		cap, winner := rt.sweep(ctx, owners, fwd)
		if cap != nil && cap.ok() {
			return cap, winner
		}
		if cap != nil {
			last = cap
		}
		if ctx.Err() != nil {
			break
		}
	}
	return last, -1
}

const saltSweep = 0xc1a5

// sweepBackoff is the delay before retry sweep s: exponential in s,
// jittered to [d/2, d) as a pure function of (seed, key, sweep) — chaos
// runs replay exactly, concurrent requests for different keys desync.
func (rt *Router) sweepBackoff(sweep int, key string) time.Duration {
	d := rt.cfg.RetryBase << uint(sweep-1)
	if d > time.Second {
		d = time.Second
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	j := fault.Jitter01(rt.cfg.Seed, saltSweep, hash64(key), uint64(sweep))
	return half + time.Duration(j*float64(half))
}

// attemptResult is one node attempt's outcome.
type attemptResult struct {
	node   int
	hedged bool
	cap    *captured
	err    error
}

// sweep races one pass over the owners: the primary first, a hedge
// against the next owner if the primary dawdles past HedgeAfter, and an
// immediate failover launch whenever an attempt fails. First acceptable
// response wins; losers are canceled.
func (rt *Router) sweep(ctx context.Context, owners []int, fwd *forwardReq) (*captured, int) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan attemptResult, len(owners))
	next := 0
	launch := func(hedged bool) bool {
		for next < len(owners) {
			i := owners[next]
			next++
			ns := rt.nodes[i]
			if !ns.ready.Load() {
				continue
			}
			if !ns.breaker.allow() {
				rt.o.BreakerRejects.Inc()
				continue
			}
			if hedged {
				rt.o.RouteHedges.Inc()
			}
			go rt.tryNode(actx, i, hedged, fwd, out)
			return true
		}
		return false
	}
	if !launch(false) {
		return nil, -1
	}
	inflight := 1
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var last *captured
	for inflight > 0 {
		select {
		case res := <-out:
			inflight--
			if res.cap != nil && res.cap.ok() {
				if res.hedged {
					rt.o.RouteHedgeWins.Inc()
				}
				return res.cap, res.node
			}
			if res.cap != nil {
				last = res.cap
			}
			if launch(false) {
				rt.o.RouteFailovers.Inc()
				inflight++
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				inflight++
			}
		case <-ctx.Done():
			return last, -1
		}
	}
	return last, -1
}

// tryNode performs one node attempt, honoring a single 429 Retry-After
// before giving up on the node, and feeding the breaker.
func (rt *Router) tryNode(ctx context.Context, idx int, hedged bool, fwd *forwardReq, out chan<- attemptResult) {
	ns := rt.nodes[idx]
	for tries := 0; ; tries++ {
		cap, err := rt.do(ctx, ns.node.Addr, fwd)
		if err != nil {
			rt.breakerFailure(ns)
			out <- attemptResult{node: idx, hedged: hedged, err: err}
			return
		}
		if cap.status == http.StatusTooManyRequests && tries == 0 {
			// The node is overloaded, not broken: wait out its own
			// estimate (capped) and retry it once before failing over.
			rt.o.RouteRetries.Inc()
			if !sleepCtx(ctx, rt.retryAfterDelay(cap.header)) {
				out <- attemptResult{node: idx, hedged: hedged, err: ctx.Err()}
				return
			}
			continue
		}
		if cap.ok() {
			ns.breaker.success()
		} else {
			rt.breakerFailure(ns)
		}
		out <- attemptResult{node: idx, hedged: hedged, cap: cap}
		return
	}
}

func (rt *Router) breakerFailure(ns *nodeState) {
	if ns.breaker.failure() {
		rt.o.BreakerOpens.Inc()
	}
}

// retryAfterDelay turns a 429's Retry-After header into a wait, bounded
// by RetryAfterCap.
func (rt *Router) retryAfterDelay(h http.Header) time.Duration {
	d := rt.cfg.RetryBase
	if s := h.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			d = time.Duration(sec) * time.Second
		}
	}
	if d > rt.cfg.RetryAfterCap {
		d = rt.cfg.RetryAfterCap
	}
	return d
}

// do performs one HTTP round trip to addr and buffers the response.
func (rt *Router) do(ctx context.Context, addr string, fwd *forwardReq) (*captured, error) {
	u := "http://" + addr + fwd.path
	if fwd.query != "" {
		u += "?" + fwd.query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(fwd.body))
	if err != nil {
		return nil, err
	}
	for k, vs := range fwd.header {
		req.Header[k] = vs
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _, err := serve.ReadCapped(resp.Body)
	if err != nil {
		return nil, err
	}
	return &captured{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// serveLocal replays the request against the embedded engine.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, fwd *forwardReq) {
	req := r.Clone(r.Context())
	req.Body = io.NopCloser(bytes.NewReader(fwd.body))
	req.ContentLength = int64(len(fwd.body))
	rt.local.Handler().ServeHTTP(w, req)
}

// sleepCtx sleeps d or until ctx is done; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ---- replication ----

// warmReplicas replays the just-solved request to its shard's secondary
// owners as a warm (async; at most once per node per key until membership
// says otherwise). The replica builds the hierarchy from the request
// itself, so nothing is pulled from the winner.
func (rt *Router) warmReplicas(key string, winner int, fwd *forwardReq) {
	if rt.cfg.Replicas < 2 {
		return
	}
	warm := *fwd
	warm.path, warm.query = "/internal/warm", fwd.warmQuery
	for _, i := range rt.Owners(key) {
		if i == winner || !rt.nodes[i].ready.Load() {
			continue
		}
		rt.warmMu.Lock()
		bits := rt.warmed[key]
		if bits&(1<<uint(i)) != 0 {
			rt.warmMu.Unlock()
			continue
		}
		rt.warmed[key] = bits | 1<<uint(i)
		rt.warmMu.Unlock()
		rt.warmWG.Add(1)
		go rt.pushWarm(i, key, &warm)
	}
}

func (rt *Router) pushWarm(idx int, key string, warm *forwardReq) {
	defer rt.warmWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.MaxTimeout)
	defer cancel()
	if cap, err := rt.do(ctx, rt.nodes[idx].node.Addr, warm); err == nil && cap.status == http.StatusOK {
		rt.o.ReplicaWarms.Inc()
		return
	}
	// Failed push: clear the bit so a later solve retries the warm.
	rt.warmMu.Lock()
	rt.warmed[key] &^= 1 << uint(idx)
	if rt.warmed[key] == 0 {
		delete(rt.warmed, key)
	}
	rt.warmMu.Unlock()
}

// clearWarm forgets which keys were warmed on node idx (it left and may
// return cold).
func (rt *Router) clearWarm(idx int) {
	rt.warmMu.Lock()
	for k, bits := range rt.warmed {
		bits &^= 1 << uint(idx)
		if bits == 0 {
			delete(rt.warmed, k)
		} else {
			rt.warmed[k] = bits
		}
	}
	rt.warmMu.Unlock()
}
