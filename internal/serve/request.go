package serve

import "asyncmg/internal/solve"

// SolveRequest is the JSON body of POST /solve: the canonical solve.Spec.
// Matrix uploads (POST /solve/matrix) carry the same knobs as query
// parameters instead, with the MatrixMarket stream as the body.
type SolveRequest = solve.Spec

// SolveResponse is the JSON reply of the solve endpoints.
type SolveResponse struct {
	Problem string `json:"problem"`
	Rows    int    `json:"rows"`
	Levels  int    `json:"levels"`
	Method  string `json:"method"`
	Mode    string `json:"mode"`
	// Cycles is the number of V-cycles actually run.
	Cycles int `json:"cycles"`
	// Solver echoes the outer iteration that ran; Iterations and
	// Converged report the Krylov solve (absent for plain cycling).
	Solver     string `json:"solver,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Converged  bool   `json:"converged,omitempty"`
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
	// Diverged marks a solve whose iterate blew up.
	Diverged bool `json:"diverged,omitempty"`
	// X is the solution vector, present only when the request set
	// return_x.
	X []float64 `json:"x,omitempty"`
	// RolledBack marks an async solve whose iterate the rollback guard
	// discarded (X is zero, RelRes 1).
	RolledBack bool `json:"rolled_back,omitempty"`
	// DampTightens / DampRelaxes count adaptive-damping controller
	// events across the solve's grids; MinOmega is the smallest final
	// per-grid factor. Present only when the request enabled damping.
	DampTightens int64   `json:"damp_tightens,omitempty"`
	DampRelaxes  int64   `json:"damp_relaxes,omitempty"`
	MinOmega     float64 `json:"min_omega,omitempty"`
}
