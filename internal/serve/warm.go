package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"asyncmg/internal/engine"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
)

// Hierarchy replication, node side. The cluster router keeps each shard's
// setup cache hot on its primary owner by hashing; replication keeps a
// configurable number of secondary owners warm so a hedged or failed-over
// solve does not pay the AMG setup again. The unit of replication is not
// the built hierarchy (pointer-rich, pool-backed, expensive to serialize)
// but its recipe: a generated problem's spec, or an uploaded matrix's
// bytes. POST /internal/warm hands a node the recipe; for uploads the node
// pulls the bytes from the peer that has them (GET /internal/matrix) and
// rebuilds — setup is deterministic, so the replica's hierarchy is the
// primary's.

// WarmRequest is the JSON body of POST /internal/warm: either a generated
// problem (Problem/Size) or an uploaded matrix (MatrixFP, with Source
// naming a peer to pull the bytes from when they are not already local).
type WarmRequest struct {
	Problem  string  `json:"problem,omitempty"`
	Size     int     `json:"size,omitempty"`
	Smoother string  `json:"smoother,omitempty"`
	Omega    float64 `json:"omega,omitempty"`
	// MatrixFP is the sha256 fingerprint of a decompressed MatrixMarket
	// upload; Source is the base URL of a node that holds the bytes.
	MatrixFP string `json:"matrix_fp,omitempty"`
	Source   string `json:"source,omitempty"`
}

// WarmResponse reports a warm's outcome.
type WarmResponse struct {
	Key string `json:"key"`
	// Cached is true when the hierarchy was already resident (the warm
	// was a no-op).
	Cached bool `json:"cached"`
	// SetupNS is the build time this warm paid (0 when Cached).
	SetupNS int64 `json:"setup_ns"`
}

// handleWarm builds (or confirms) a hierarchy in the cache. It runs under
// the same admission control as a solve — a draining node refuses warms
// (it is leaving the ring), and warms queue behind real traffic rather
// than starving it — and under the worker semaphore, because an AMG setup
// is real work.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.obs.Warms.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req WarmRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad warm request: "+err.Error(), http.StatusBadRequest)
		return
	}
	sp, err := (&solve.Spec{
		Problem: req.Problem, Size: req.Size, Smoother: req.Smoother, Omega: req.Omega,
	}).Validate()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	var key string
	var build func() (*engine.Engine, error)
	switch {
	case req.MatrixFP != "":
		key = solve.MatrixKey(req.MatrixFP, sp.Smoother)
		build = func() (*engine.Engine, error) {
			return s.buildFromFingerprint(r.Context(), req.MatrixFP, req.Source, sp.Smoother)
		}
	case req.Problem != "":
		key = solve.ProblemKey(req.Problem, req.Size, sp.Smoother)
		build = func() (*engine.Engine, error) { return s.buildProblem(req.Problem, req.Size, sp.Smoother) }
	default:
		http.Error(w, "warm needs problem or matrix_fp", http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		http.Error(w, "warm timed out waiting for a worker", http.StatusServiceUnavailable)
		return
	}
	e, hit := s.cache.getOrBuild(key, build)
	select {
	case <-e.ready:
	case <-ctx.Done():
		http.Error(w, "warm timed out", http.StatusServiceUnavailable)
		return
	}
	if e.err != nil {
		http.Error(w, "warm setup: "+e.err.Error(), http.StatusBadGateway)
		return
	}
	resp := WarmResponse{Key: key, Cached: hit}
	if !hit {
		resp.SetupNS = e.setupNS
	}
	writeJSON(w, resp)
}

// buildFromFingerprint materializes an uploaded matrix's hierarchy from
// the local byte store, pulling the bytes from the warm's source peer when
// they are not resident. The pulled bytes are fingerprint-verified: a
// replica never caches under an identity the bytes do not hash to.
func (s *Server) buildFromFingerprint(ctx context.Context, fp, source string, smo smoother.Config) (*engine.Engine, error) {
	raw, ok := s.matrices.get(fp)
	if !ok {
		pulled, err := s.pullMatrix(ctx, fp, source)
		if err != nil {
			return nil, err
		}
		raw = pulled
	}
	return s.buildMatrix(raw, smo)
}

// pullMatrix fetches matrix bytes by fingerprint from a peer node and
// stores them locally on success.
func (s *Server) pullMatrix(ctx context.Context, fp, source string) ([]byte, error) {
	if source == "" {
		return nil, fmt.Errorf("matrix %s not resident and no source to pull from", fp[:min(12, len(fp))])
	}
	req, err := http.NewRequestWithContext(ctx, "GET", source+"/internal/matrix?fp="+fp, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cfg.PeerClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("pull from %s: %w", source, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pull from %s: status %d", source, resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > s.cfg.MaxBodyBytes {
		return nil, fmt.Errorf("pulled matrix exceeds body limit")
	}
	if Fingerprint(raw) != fp {
		return nil, fmt.Errorf("pulled matrix does not hash to %s", fp[:min(12, len(fp))])
	}
	s.matrices.put(fp, raw)
	return raw, nil
}

// handleMatrixGet serves stored matrix bytes by fingerprint — the pull
// side of replication. Liveness-gated only: a draining node still hands
// its matrices to the replicas taking over its shards.
func (s *Server) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("fp")
	raw, ok := s.matrices.get(fp)
	if !ok {
		http.Error(w, "matrix not resident", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

// matrixStore is a small bounded LRU of uploaded matrix bytes keyed by
// sha256 fingerprint. It exists purely for replication: solve traffic
// never reads it.
type matrixStore struct {
	mu      sync.Mutex
	max     int
	order   *list.List
	entries map[string]*list.Element
}

type matrixEntry struct {
	fp  string
	raw []byte
}

func newMatrixStore(max int) *matrixStore {
	if max < 1 {
		max = 1
	}
	return &matrixStore{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

func (m *matrixStore) put(fp string, raw []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[fp]; ok {
		m.order.MoveToFront(el)
		return
	}
	m.entries[fp] = m.order.PushFront(&matrixEntry{fp: fp, raw: raw})
	for m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*matrixEntry).fp)
	}
}

func (m *matrixStore) get(fp string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[fp]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*matrixEntry).raw, true
}
