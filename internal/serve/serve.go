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
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/harness"
	"asyncmg/internal/krylov"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
)

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
	// MaxBodyBytes caps request bodies, uploads included (default 64 MiB).
	MaxBodyBytes int64
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
	// MatrixStoreSize bounds the uploaded-matrix byte store that backs
	// hierarchy replication pulls (default 16 matrices).
	MatrixStoreSize int
	// PeerClient performs replication pulls from peer nodes (default
	// http.DefaultClient). A cluster harness points it at its chaos
	// transport so pulls share the injected fault schedule.
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
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
	if c.MatrixStoreSize <= 0 {
		c.MatrixStoreSize = 16
	}
	if c.PeerClient == nil {
		c.PeerClient = http.DefaultClient
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
	// matrices retains uploaded matrix bytes by fingerprint so replica
	// nodes can pull them (/internal/matrix) instead of re-uploading.
	matrices *matrixStore
}

// New builds a server from cfg (zero value is fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Observer,
		cache:    newCache(cfg.CacheSize, cfg.Observer),
		sem:      make(chan struct{}, cfg.Workers),
		matrices: newMatrixStore(cfg.MatrixStoreSize),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /solve/matrix", s.handleSolveMatrix)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /internal/warm", s.handleWarm)
	s.mux.HandleFunc("GET /internal/matrix", s.handleMatrixGet)
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

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	body, _, status, err := ReadBody(r, s.cfg.MaxBodyBytes, false)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	sp, err := solve.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if sp.Problem == "" {
		http.Error(w, "problem is required (use /solve/matrix to upload a matrix)", http.StatusBadRequest)
		return
	}
	s.solve(w, r, sp, solve.ProblemKey(sp.Problem, sp.Size, sp.Smoother), func() (*engine.Engine, error) {
		return s.buildProblem(sp.Problem, sp.Size, sp.Smoother)
	})
}

// handleSolveMatrix solves on an uploaded MatrixMarket operator. The body
// is the matrix (optionally gzip-compressed — by Content-Encoding header
// or magic-byte sniff); solver knobs ride in the query string.
func (s *Server) handleSolveMatrix(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	sp, err := solve.FromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, raw, status, err := ReadBody(r, s.cfg.MaxBodyBytes, true)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	// The fingerprint is of the decompressed bytes, so the same matrix
	// hits the same cache entry whether or not the client compressed it.
	fp := Fingerprint(raw)
	sp.Problem = "mtx:" + fp[:12]
	// Retain the bytes so replica nodes can pull this matrix by
	// fingerprint instead of needing the client to re-upload it.
	s.matrices.put(fp, raw)
	s.solve(w, r, sp, solve.MatrixKey(fp, sp.Smoother), func() (*engine.Engine, error) {
		return s.buildMatrix(raw, sp.Smoother)
	})
}

// ReadBody reads r's body, capped at limit bytes. With unzip, a gzip body
// (by Content-Encoding header or magic bytes) is decompressed under the
// same cap: raw is what arrived, plain what it says (the same slice when
// it was not compressed). On failure status is the HTTP status to answer.
// The cluster router reads uploads through it too, so node and router
// fingerprint the same bytes.
func ReadBody(r *http.Request, limit int64, unzip bool) (raw, plain []byte, status int, err error) {
	raw, err = io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if int64(len(raw)) > limit {
		return nil, nil, http.StatusRequestEntityTooLarge, errors.New("body too large")
	}
	if !unzip || (r.Header.Get("Content-Encoding") != "gzip" && !(len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b)) {
		return raw, raw, 0, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err == nil {
		plain, err = io.ReadAll(io.LimitReader(zr, limit+1))
	}
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("gzip: %w", err)
	}
	if int64(len(plain)) > limit {
		return nil, nil, http.StatusRequestEntityTooLarge, errors.New("decompressed body too large")
	}
	return raw, plain, 0, nil
}

// Fingerprint is the identity of an uploaded matrix: the hex sha256 of its
// decompressed MatrixMarket bytes.
func Fingerprint(plain []byte) string {
	sum := sha256.Sum256(plain)
	return hex.EncodeToString(sum[:])
}

// buildProblem builds the engine of a generated problem under the
// family's setup rule, matrix-free when the server is configured so and
// the family has a stencil form.
func (s *Server) buildProblem(problem string, size int, smo smoother.Config) (*engine.Engine, error) {
	opt := harness.ProblemOptions(problem, *s.cfg.AMG)
	if s.cfg.MatrixFree {
		if a, ok := harness.BuildProblemOperator(problem, size); ok {
			return s.observed(engine.NewOperator(a, opt, smo))
		}
	}
	a, err := harness.BuildProblem(problem, size)
	if err != nil {
		return nil, err
	}
	return s.observed(engine.New(a, opt, smo))
}

// buildMatrix builds the engine of an uploaded MatrixMarket operator.
func (s *Server) buildMatrix(raw []byte, smo smoother.Config) (*engine.Engine, error) {
	a, err := mtx.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	return s.observed(engine.New(a, *s.cfg.AMG, smo))
}

// observed wires the service observer into a new engine, so per-setup
// stage timings land in the setup_*_ns counters (which stay flat across
// cache hits).
func (s *Server) observed(setup *engine.Engine, err error) (*engine.Engine, error) {
	if err != nil {
		return nil, err
	}
	setup.SetObserver(s.obs)
	return setup, nil
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

func (s *Server) solve(w http.ResponseWriter, r *http.Request, sp *solve.Plan, key string, build func() (*engine.Engine, error)) {
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

	e, hit := s.cache.getOrBuild(key, build)
	select {
	case <-e.ready:
	case <-ctx.Done():
		s.fail(w, r, ctx.Err())
		return
	}
	if e.err != nil {
		http.Error(w, "setup: "+e.err.Error(), http.StatusBadRequest)
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
		Converged:      out.Converged,
		RelRes:         out.RelRes,
		History:        out.History,
		Cache:          "miss",
		HierarchyBytes: e.bytes,
		Batched:        1,
		SolveNS:        time.Since(start).Nanoseconds(),
		Diverged:       out.Diverged,
		RolledBack:     out.RolledBack,
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
	if sp.Damping.Mode != async.DampOff {
		resp.DampTightens = out.Async.DampTightens
		resp.DampRelaxes = out.Async.DampRelaxes
		resp.MinOmega = 1
		for _, w := range out.Async.FinalOmega {
			if w < resp.MinOmega {
				resp.MinOmega = w
			}
		}
	}
	writeJSON(w, resp)
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
