package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"asyncmg/internal/solve"
)

// SolveRequest is the JSON body of POST /solve: the canonical solve.Spec.
// Matrix uploads (POST /solve/matrix) carry the same knobs as query
// parameters instead, with the MatrixMarket stream as the body.
type SolveRequest = solve.Spec

// Request is a solve request as ReadRequest read it.
type Request struct {
	Plan *solve.Plan
	// Key is the hierarchy's cache key, which is also the cluster
	// router's shard key.
	Key string
	// Raw is the body as received, compressed or not: what the router
	// forwards to a node and replays to a replica's warm.
	Raw []byte
	// Plain is an upload's decompressed MatrixMarket bytes (the same
	// slice as Raw when it was not compressed); nil for a /solve body.
	Plain []byte
}

// ReadRequest is the one place a solve body is read under the body cap,
// parsed, fingerprinted and keyed. Without upload, r is a /solve JSON
// body. With upload, r is a /solve/matrix upload: the knobs are query
// parameters and the body is a MatrixMarket stream, gzip-compressed when
// Content-Encoding or its magic bytes say so. The node's solve and warm
// handlers and the cluster router all call it, so the router's shard key
// is the node's cache key by construction. On failure status is the HTTP
// status to answer.
func ReadRequest(r *http.Request, upload bool) (req Request, status int, err error) {
	if upload {
		if req.Plan, err = solve.FromQuery(r.URL.Query()); err != nil {
			return Request{}, http.StatusBadRequest, err
		}
	}
	raw, over, err := ReadCapped(r.Body)
	if err != nil {
		return Request{}, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if over {
		return Request{}, http.StatusRequestEntityTooLarge, errors.New("body too large")
	}
	req.Raw = raw
	if !upload {
		if req.Plan, err = solve.Parse(raw); err != nil {
			return Request{}, http.StatusBadRequest, err
		}
		if req.Plan.Problem == "" {
			return Request{}, http.StatusBadRequest, errors.New("problem is required (use /solve/matrix to upload a matrix)")
		}
		req.Key = solve.ProblemKey(req.Plan.Problem, req.Plan.Size, req.Plan.Smoother)
		return req, 0, nil
	}
	req.Plain = raw
	if r.Header.Get("Content-Encoding") == "gzip" || len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err == nil {
			req.Plain, over, err = ReadCapped(zr)
		}
		if err != nil {
			return Request{}, http.StatusBadRequest, fmt.Errorf("gzip: %w", err)
		}
		if over {
			return Request{}, http.StatusRequestEntityTooLarge, errors.New("decompressed body too large")
		}
	}
	// The fingerprint is of the decompressed bytes, so the same matrix
	// hits the same cache entry whether or not the client compressed it.
	sum := sha256.Sum256(req.Plain)
	fp := hex.EncodeToString(sum[:])
	req.Plan.Problem = "mtx:" + fp[:12]
	req.Key = solve.MatrixKey(fp, req.Plan.Smoother)
	return req, 0, nil
}

// SolveResponse is the JSON reply of the solve endpoints.
type SolveResponse struct {
	Problem string `json:"problem"`
	Rows    int    `json:"rows"`
	Levels  int    `json:"levels"`
	Method  string `json:"method"`
	Mode    string `json:"mode"`
	// Cycles is the number of V-cycles actually run.
	Cycles int `json:"cycles"`
	// Solver echoes the outer iteration that ran; Iterations reports the
	// Krylov solve (absent for plain cycling).
	Solver     string `json:"solver,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	// Verdict is "converged", "stalled" or "grew" (a diverged solve
	// answers 422); Converged is Verdict == "converged".
	Verdict   string `json:"verdict"`
	Converged bool   `json:"converged,omitempty"`
	// RelRes is the final relative residual; History the per-cycle trace
	// (sync mode).
	RelRes  float64   `json:"relres"`
	History []float64 `json:"history,omitempty"`
	// Cache is "hit" or "miss" for this request's hierarchy lookup.
	Cache string `json:"cache"`
	// HierarchyBytes is the resident footprint of the cached hierarchy
	// (operators + interpolants); float32 coarse storage shrinks it.
	HierarchyBytes int `json:"hierarchy_bytes,omitempty"`
	// Batched is always 1: every request solves alone. The field stays so
	// clients that read it keep working.
	Batched int `json:"batched"`
	// SetupNS is the AMG setup time this request paid (0 on a cache hit);
	// SolveNS the solve time.
	SetupNS int64 `json:"setup_ns"`
	SolveNS int64 `json:"solve_ns"`
	// Diverged is Verdict == "diverged", which no 200 carries.
	Diverged bool `json:"diverged,omitempty"`
	// X is the solution vector, present only when the request set
	// return_x.
	X []float64 `json:"x,omitempty"`
	// RolledBack marks an async solve whose iterate the rollback guard
	// discarded. The guard's verdict is Diverged, so no 200 carries it.
	RolledBack bool `json:"rolled_back,omitempty"`
	// DampTightens / DampRelaxes count adaptive-damping controller
	// events across the solve's grids; MinOmega is the smallest final
	// per-grid factor. Present only when the request enabled damping.
	DampTightens int64   `json:"damp_tightens,omitempty"`
	DampRelaxes  int64   `json:"damp_relaxes,omitempty"`
	MinOmega     float64 `json:"min_omega,omitempty"`
}
