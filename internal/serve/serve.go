// Package serve turns the solver library into a long-running service:
// an HTTP API over the synchronous engine, the asynchronous runtime and
// the distributed-memory simulation, with two production mechanisms on
// top of the solvers themselves:
//
//   - a bounded LRU cache of AMG hierarchies keyed by problem identity
//     (generator family+size+smoother, or the sha256 fingerprint of an
//     uploaded matrix), with singleflight builds so a cold burst pays for
//     one setup;
//   - admission control and lifecycle: a bounded queue with 429
//     backpressure, a worker semaphore, per-request deadlines, 503 while
//     draining, and a graceful shutdown that finishes in-flight solves.
//
// Every request solves alone on its worker slot. Requests are not
// coalesced into multi-RHS block solves: the hot operators fit in cache,
// so a block cycle costs about k single cycles, and waiting for company
// only delayed each request (EXPERIMENTS.md, "Request coalescing
// deleted").
//
// Requests are parsed, validated and dispatched to the solvers by
// internal/solve, the one solve spec that mgsolve and the cluster router
// read too; this package adds HTTP, the cache and admission.
//
// Everything is stdlib net/http; metrics are the obs registry in text
// exposition format at /metrics.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/krylov"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/solve"
	"asyncmg/internal/vec"
)

// maxBodyBytes caps every body the service reads: requests, uploads and
// warms (before and after decompression), and, in the cluster router,
// requests and node responses.
const maxBodyBytes = 64 << 20

// Config tunes the solver service. The zero value picks sensible defaults
// for every field.
type Config struct {
	// CacheSize bounds the hierarchy LRU (default 8 setups).
	CacheSize int
	// MaxQueue bounds admitted-but-unfinished requests; excess gets 429
	// (default 64).
	MaxQueue int
	// Workers bounds concurrently executing solves (default GOMAXPROCS).
	Workers int
	// MaxTimeout caps per-request deadlines; it is also the default for
	// requests that set none (default 60s).
	MaxTimeout time.Duration
	// Observer receives service and solver metrics (default: a fresh
	// observer; exposed at /metrics either way).
	Observer *obs.Observer
	// AMG overrides the hierarchy options (default amg.DefaultOptions).
	// Setting AMG.CoarsePrecision = op.CoarseFloat32 stores every coarse
	// operator and interpolant in float32, shrinking cached hierarchies.
	AMG *amg.Options
	// MatrixFree builds the structured stencil problems (7pt, 27pt)
	// matrix-free: the fine-level Laplacian is applied from the stencil
	// and never materialized as CSR. FEM and uploaded-matrix problems are
	// unaffected.
	MatrixFree bool
	// PeerClient is unused: a node never calls a peer, since replication
	// is pushed by the cluster router. The field stays because the
	// benchmark's cluster fleet (bench/serve.go) still sets it.
	PeerClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Observer == nil {
		c.Observer = obs.New(16)
	}
	if c.AMG == nil {
		opt := amg.DefaultOptions()
		c.AMG = &opt
	}
	return c
}

// Server is the solver service. Create with New, mount Handler (or use
// Serve), stop with Shutdown.
type Server struct {
	cfg     Config
	obs     *obs.Observer
	cache   *cache
	mux     *http.ServeMux
	httpSrv *http.Server

	// sem is the worker semaphore: at most cfg.Workers solves execute at
	// once; admitted requests beyond that wait in the bounded queue.
	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	// solveEWMA is an exponentially weighted moving average of recent
	// solve wall times (nanoseconds); it sizes the 429 Retry-After hint.
	solveEWMA atomic.Int64
}

// New builds a server from cfg (zero value is fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		obs:   cfg.Observer,
		cache: newCache(cfg.CacheSize, cfg.Observer),
		sem:   make(chan struct{}, cfg.Workers),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, false, false) })
	s.mux.HandleFunc("POST /solve/matrix", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, true, false) })
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /internal/warm", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, r.URL.Query().Get(WarmUpload) != "", true)
	})
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.mux}
	return s.httpSrv.Serve(l)
}

// Shutdown drains the server: new solve requests get 503 immediately,
// in-flight solves run to completion (or until ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// ---- endpoints ----

// handleHealthz is the liveness probe: 200 for as long as the process can
// answer, draining or not. A load balancer that kills on liveness must not
// shoot a node that is merely draining — readiness (/readyz) is the signal
// that unroutes it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"draining\":%t,\"cache_entries\":%d,\"queue_depth\":%d}\n",
		s.draining.Load(), s.cache.len(), s.queued.Load())
}

// handleReadyz is the readiness probe: 503 while draining (take me out of
// the ring, let in-flight work finish), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ready\",\"cache_entries\":%d,\"queue_depth\":%d}\n",
		s.cache.len(), s.queued.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obs.WriteText(w)
}

// handle runs one request through admission, ReadRequest, the worker
// semaphore and the hierarchy cache, then solves it. Without upload the
// body is /solve's JSON; with upload it is a MatrixMarket operator,
// optionally gzip-compressed, with the solver knobs in the query string.
// A warm (POST /internal/warm) stops once the hierarchy is built.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, upload, warm bool) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	if warm {
		s.obs.Warms.Inc()
	}
	req, status, err := ReadRequest(r, upload)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	s.solve(w, r, req, warm)
}

// ReadCapped reads rd to its end or to the body cap, whichever comes
// first; over reports that rd held more than the cap.
func ReadCapped(rd io.Reader) (b []byte, over bool, err error) {
	b, err = io.ReadAll(io.LimitReader(rd, maxBodyBytes+1))
	return b, len(b) > maxBodyBytes, err
}

// build runs the setup of req's generated problem, or of the MatrixMarket
// operator it uploaded, under the server's hierarchy options.
func (s *Server) build(req Request) (*engine.Engine, error) {
	src := solve.Source{Problem: req.Plan.Problem, Size: req.Plan.Size}
	if req.Plain != nil {
		a, err := mtx.Read(bytes.NewReader(req.Plain))
		if err != nil {
			return nil, err
		}
		src = solve.Source{Matrix: a}
	}
	return solve.Build(src, *s.cfg.AMG, req.Plan.Smoother, s.cfg.MatrixFree)
}

// ---- admission control ----

// admit runs admission control: counts the request, rejects while
// draining (503) or when the bounded queue is full (429), and otherwise
// returns the release func the handler must defer.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	s.obs.Requests.Inc()
	if s.draining.Load() {
		s.obs.Rejected.Inc()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return nil, false
	}
	q := s.queued.Add(1)
	s.obs.QueueDepth.Set(q)
	if q > int64(s.cfg.MaxQueue) {
		s.obs.QueueDepth.Set(s.queued.Add(-1))
		s.obs.Rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return nil, false
	}
	return func() { s.obs.QueueDepth.Set(s.queued.Add(-1)) }, true
}

// retryAfterSeconds estimates when a rejected client should come back:
// the time for the workers to drain the queue ahead of it, from the
// current depth and the recent solve-latency EWMA, rounded up to whole
// seconds and clamped to [1, 60]. With no latency history yet it falls
// back to 1s, the old hardcoded hint.
func (s *Server) retryAfterSeconds() int {
	lat := time.Duration(s.solveEWMA.Load())
	if lat <= 0 {
		return 1
	}
	depth := s.queued.Load()
	rounds := depth/int64(s.cfg.Workers) + 1
	wait := time.Duration(rounds) * lat
	sec := int((wait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// recordSolveNS folds one finished solve's wall time into the latency
// EWMA (α = 1/4). Lost updates under contention are harmless — this is a
// hint, not an invariant.
func (s *Server) recordSolveNS(ns int64) {
	if ns <= 0 {
		return
	}
	old := s.solveEWMA.Load()
	if old == 0 {
		s.solveEWMA.Store(ns)
		return
	}
	s.solveEWMA.Store(old + (ns-old)/4)
}

// ---- the solve pipeline ----

// solve answers req from its cached hierarchy, building it on a miss; a
// warm answers once the hierarchy is resident, with what a solve of the
// same request would answer for a setup that fails.
func (s *Server) solve(w http.ResponseWriter, r *http.Request, req Request, warm bool) {
	sp := req.Plan
	timeout := s.cfg.MaxTimeout
	if sp.Timeout > 0 && sp.Timeout < timeout {
		timeout = sp.Timeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Worker semaphore: setup and solve both count as work. Waiting here
	// is the queue; the deadline keeps a stuck queue from pinning clients.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.fail(w, r, ctx.Err())
		return
	}

	e, hit := s.cache.getOrBuild(req.Key, func() (*engine.Engine, error) { return s.build(req) })
	select {
	case <-e.ready:
	case <-ctx.Done():
		s.fail(w, r, ctx.Err())
		return
	}
	if e.err != nil {
		status := http.StatusBadRequest
		if errors.Is(e.err, errSetupPanic) {
			status = http.StatusInternalServerError
		}
		http.Error(w, "setup: "+e.err.Error(), status)
		return
	}
	if warm {
		resp := WarmResponse{Key: req.Key, Cached: hit}
		if !hit {
			resp.SetupNS = e.setupNS
		}
		writeJSON(w, resp)
		return
	}
	b, err := sp.RightHandSide(e.rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	start := time.Now()
	out, err := solve.Run(ctx, e.setup, sp, b, s.obs)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	resp := SolveResponse{
		Problem:        sp.Problem,
		Rows:           e.rows,
		Levels:         e.setup.NumLevels(),
		Method:         sp.Method.String(),
		Mode:           sp.Mode,
		Cycles:         out.Cycles,
		Iterations:     out.Iterations,
		Verdict:        out.Verdict.String(),
		Converged:      out.Verdict == vec.Converged,
		RelRes:         out.RelRes,
		History:        out.History,
		Cache:          "miss",
		HierarchyBytes: e.bytes,
		Batched:        1,
		SolveNS:        time.Since(start).Nanoseconds(),
		Diverged:       out.Verdict == vec.Diverged,
		RolledBack:     out.Async != nil && out.Async.RolledBack,
	}
	s.recordSolveNS(resp.SolveNS)
	if hit {
		resp.Cache = "hit"
	} else {
		resp.SetupNS = e.setupNS
	}
	if sp.Solver != solve.SolverCycle {
		resp.Solver = sp.Solver
	}
	if sp.ReturnX {
		resp.X = out.X
	}
	if sp.Async.Damping.Mode != async.DampOff {
		resp.DampTightens = out.Async.DampTightens
		resp.DampRelaxes = out.Async.DampRelaxes
		resp.MinOmega = out.MinOmega()
	}
	// A diverged solve is a well-formed request the iteration could not
	// carry through, answered like a breakdown (JSON has no NaN or Inf).
	if resp.Diverged {
		http.Error(w, divergedText(resp, out.X, sp.Async.Damping.Mode != async.DampOff), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, resp)
}

// divergedText is the 422 body of a Diverged solve: the vec.Judge rule
// that fired, or the rollback guard's discard, and for a damped solve the
// damping telemetry its JSON fields would have carried.
func divergedText(resp SolveResponse, x []float64, damped bool) string {
	why := fmt.Sprintf("relres %g above %g", resp.RelRes, vec.DivergedRelRes)
	switch {
	case resp.RolledBack:
		why = "rolled back to the initial guess"
	case vec.HasNonFinite(x) || math.IsNaN(resp.RelRes) || math.IsInf(resp.RelRes, 0):
		why = "non-finite iterate or relres"
	}
	if damped {
		why += fmt.Sprintf(" (damp_tightens %d, min_omega %g)", resp.DampTightens, resp.MinOmega)
	}
	return "solve diverged: " + why
}

// fail maps solve errors to HTTP statuses: deadline → 504, client gone →
// 499 (nginx convention; the client is not listening anyway), Krylov
// breakdown → 422 (the request was well-formed but the iteration cannot
// continue on this operator — e.g. PCG on an indefinite system), anything
// else → 500.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "solve deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		w.WriteHeader(499)
	case errors.Is(err, krylov.ErrBreakdown):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON encodes v before it writes the header, so a value JSON cannot
// carry answers 500 with the error instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
