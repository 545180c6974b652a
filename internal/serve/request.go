package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/harness"
	"asyncmg/internal/krylov"
	"asyncmg/internal/smoother"
)

// SolveRequest is the JSON body of POST /solve. Matrix uploads (POST
// /solve/matrix) carry the same knobs as query parameters instead, with
// the MatrixMarket stream as the body.
type SolveRequest struct {
	// Problem and Size select a generated operator (harness families:
	// 7pt, 27pt, mfem-laplace, mfem-elasticity).
	Problem string `json:"problem"`
	Size    int    `json:"size"`
	// Method is mult, multadd, afacx or bpx (default multadd).
	Method string `json:"method,omitempty"`
	// Smoother is w-jacobi, l1-jacobi, hybrid-jgs, async-gs or
	// l1-hybrid-jgs (default w-jacobi); Omega 0 picks the family default.
	Smoother string  `json:"smoother,omitempty"`
	Omega    float64 `json:"omega,omitempty"`
	// Cycles is t_max (default 30, capped by the server).
	Cycles int `json:"cycles,omitempty"`
	// Mode is sync (default), async (goroutine teams) or dist
	// (message-passing simulation).
	Mode string `json:"mode,omitempty"`
	// Threads is the team size for async mode (default 8).
	Threads int `json:"threads,omitempty"`
	// RHS is an explicit right-hand side; empty generates the
	// reproducible random RHS of the paper's protocol from Seed.
	RHS  []float64 `json:"rhs,omitempty"`
	Seed int64     `json:"seed,omitempty"`
	// TimeoutMS bounds the solve wall time (capped by the server's
	// per-request ceiling).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ReturnX asks for the solution vector in the response (off by
	// default: n floats of JSON per request is rarely what a load test
	// wants).
	ReturnX bool `json:"return_x,omitempty"`
	// Solver selects the outer iteration: "cycle" (default, plain
	// multigrid cycling), "pcg" (AMG-preconditioned conjugate gradients)
	// or "fgmres" (flexible restarted GMRES, for non-symmetric
	// operators). The Krylov solvers reuse the cached hierarchy as the
	// preconditioner and run in sync mode only.
	Solver string `json:"solver,omitempty"`
	// Tol is the Krylov relative-residual stopping tolerance
	// (default 1e-8; Krylov solvers only).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds Krylov iterations (default 500; Krylov solvers only).
	MaxIter int `json:"maxiter,omitempty"`
	// Restart is the FGMRES restart length m (default 30; fgmres only).
	Restart int `json:"restart,omitempty"`
	// Damping selects the correction-damping policy for async-mode
	// additive solves: "off" (default), "fixed" or "auto".
	Damping string `json:"damping,omitempty"`
	// DampOmega is the damping factor: the constant for fixed, the
	// starting/maximum factor for auto (0 = 1).
	DampOmega float64 `json:"damp_omega,omitempty"`
	// DampMinOmega floors the adaptive factor (0 = solver default).
	DampMinOmega float64 `json:"damp_min_omega,omitempty"`
	// DampStalenessRef is δ₀, the read age considered fresh (0 = the
	// number of grids).
	DampStalenessRef int64 `json:"damp_staleness_ref,omitempty"`
	// DampRollback arms the rollback-last guard: a diverging solve is
	// aborted, its iterate discarded and rolled_back set in the reply.
	DampRollback bool `json:"damp_rollback,omitempty"`
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

// Solve modes.
const (
	ModeSync  = "sync"
	ModeAsync = "async"
	ModeDist  = "dist"
)

// Outer solvers.
const (
	SolverCycle  = "cycle"
	SolverPCG    = "pcg"
	SolverFGMRES = "fgmres"
)

// spec is a validated, enum-resolved solve request.
type spec struct {
	problem string // harness family, or "" for an uploaded matrix
	size    int
	method  engine.Method
	smoCfg  smoother.Config
	cycles  int
	mode    string
	threads int
	rhs     []float64
	seed    int64
	timeout time.Duration
	returnX bool
	damping async.DampingPolicy
	solver  string // SolverCycle, SolverPCG or SolverFGMRES
	tol     float64
	maxiter int
	restart int
}

// Request-shape limits enforced before any work happens. Decoding is the
// service's untrusted-input surface (fuzzed), so every bound lives here.
const (
	maxCycles     = 10_000
	maxThreads    = 1 << 10
	maxSize       = 1 << 20
	maxRHSEntries = 1 << 26
	maxKrylovIter = 10_000
	maxRestart    = 1 << 10

	defaultKrylovTol     = 1e-8
	defaultKrylovMaxIter = 500
)

// parseSolveRequest decodes and validates a /solve JSON body. It must
// never panic on arbitrary input (fuzzed contract).
func parseSolveRequest(body []byte) (*spec, error) {
	var req SolveRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return specFromRequest(&req)
}

// specFromRequest validates a decoded request. Problem may be empty only
// for matrix uploads (the caller fills the operator in separately).
func specFromRequest(req *SolveRequest) (*spec, error) {
	sp := &spec{
		problem: req.Problem,
		size:    req.Size,
		cycles:  req.Cycles,
		threads: req.Threads,
		rhs:     req.RHS,
		seed:    req.Seed,
		returnX: req.ReturnX,
	}
	if req.Problem != "" {
		known := false
		for _, p := range harness.KnownProblems() {
			if p == req.Problem {
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown problem %q (want one of %v)", req.Problem, harness.KnownProblems())
		}
		if req.Size < 2 || req.Size > maxSize {
			return nil, fmt.Errorf("size %d outside [2, %d]", req.Size, maxSize)
		}
	}
	var err error
	if sp.method, err = parseMethod(req.Method); err != nil {
		return nil, err
	}
	kind, err := parseSmoother(req.Smoother)
	if err != nil {
		return nil, err
	}
	omega := req.Omega
	if math.IsNaN(omega) || math.IsInf(omega, 0) || omega < 0 || omega > 2 {
		return nil, fmt.Errorf("omega %v outside [0, 2]", omega)
	}
	if omega == 0 {
		omega = harness.DefaultOmega(req.Problem)
	}
	sp.smoCfg = smoother.Config{Kind: kind, Omega: omega, Blocks: 1}
	if sp.cycles == 0 {
		sp.cycles = 30
	}
	if sp.cycles < 1 || sp.cycles > maxCycles {
		return nil, fmt.Errorf("cycles %d outside [1, %d]", sp.cycles, maxCycles)
	}
	switch req.Mode {
	case "", ModeSync:
		sp.mode = ModeSync
	case ModeAsync, ModeDist:
		sp.mode = req.Mode
	default:
		return nil, fmt.Errorf("unknown mode %q (want sync, async or dist)", req.Mode)
	}
	if sp.threads == 0 {
		sp.threads = 8
	}
	if sp.threads < 1 || sp.threads > maxThreads {
		return nil, fmt.Errorf("threads %d outside [1, %d]", sp.threads, maxThreads)
	}
	if len(sp.rhs) > maxRHSEntries {
		return nil, fmt.Errorf("rhs too large (%d entries)", len(sp.rhs))
	}
	for i, v := range sp.rhs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("rhs[%d] is non-finite", i)
		}
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	sp.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	dampMode, err := parseDampMode(req.Damping)
	if err != nil {
		return nil, err
	}
	sp.damping = async.DampingPolicy{
		Mode:         dampMode,
		Omega:        req.DampOmega,
		MinOmega:     req.DampMinOmega,
		StalenessRef: req.DampStalenessRef,
		Rollback:     req.DampRollback,
	}
	// Bounds (and NaN/Inf) are rejected even with damping off, so a bad
	// damp_omega is always a 400 rather than silently ignored knobs.
	if err := sp.damping.Validate(); err != nil {
		return nil, err
	}
	if dampMode != async.DampOff || req.DampRollback {
		if sp.mode != ModeAsync {
			return nil, fmt.Errorf("damping requires mode async, got %q", sp.mode)
		}
		if sp.method != engine.Multadd && sp.method != engine.AFACx {
			return nil, fmt.Errorf("damping applies to the additive methods (multadd, afacx), got %q", methodName(sp.method))
		}
	}
	if err := validateSolver(req, sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// validateSolver resolves the outer-solver selection. The Krylov knobs
// (tol, maxiter, restart) are rejected — not ignored — when the solver
// they configure is not selected, so a typo'd request fails loudly.
func validateSolver(req *SolveRequest, sp *spec) error {
	switch strings.ToLower(req.Solver) {
	case "", SolverCycle:
		sp.solver = SolverCycle
	case SolverPCG, "cg":
		sp.solver = SolverPCG
	case SolverFGMRES, "gmres":
		sp.solver = SolverFGMRES
	default:
		return fmt.Errorf("unknown solver %q (want cycle, pcg or fgmres)", req.Solver)
	}
	if sp.solver == SolverCycle {
		if req.Tol != 0 || req.MaxIter != 0 || req.Restart != 0 {
			return fmt.Errorf("tol, maxiter and restart apply to the Krylov solvers (pcg, fgmres)")
		}
		return nil
	}
	if sp.mode != ModeSync {
		return fmt.Errorf("solver %q requires mode sync, got %q", sp.solver, sp.mode)
	}
	tol := req.Tol
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 || tol >= 1 {
		return fmt.Errorf("tol %v outside (0, 1)", tol)
	}
	if tol == 0 {
		tol = defaultKrylovTol
	}
	sp.tol = tol
	mi := req.MaxIter
	if mi == 0 {
		mi = defaultKrylovMaxIter
	}
	if mi < 1 || mi > maxKrylovIter {
		return fmt.Errorf("maxiter %d outside [1, %d]", mi, maxKrylovIter)
	}
	sp.maxiter = mi
	switch sp.solver {
	case SolverPCG:
		if req.Restart != 0 {
			return fmt.Errorf("restart applies to fgmres only")
		}
		// PCG needs an SPD preconditioner: one symmetric cycle (mult), or
		// an additive cycle built from SPD level terms (multadd, bpx).
		// AFACx is not SPD — route non-symmetric preconditioning through
		// fgmres instead.
		if sp.method == engine.AFACx {
			return fmt.Errorf("pcg needs an SPD preconditioner (mult, multadd or bpx); use fgmres with afacx")
		}
	case SolverFGMRES:
		rs := req.Restart
		if rs == 0 {
			rs = krylov.DefaultRestart
		}
		if rs < 1 || rs > maxRestart {
			return fmt.Errorf("restart %d outside [1, %d]", rs, maxRestart)
		}
		sp.restart = rs
	}
	return nil
}

// parseDampMode maps the wire name of a damping policy to its mode.
func parseDampMode(s string) (async.DampMode, error) {
	switch strings.ToLower(s) {
	case "", "off", "damp-off":
		return async.DampOff, nil
	case "fixed", "damp-fixed":
		return async.DampFixed, nil
	case "auto", "damp-auto":
		return async.DampAuto, nil
	}
	return 0, fmt.Errorf("unknown damping policy %q (want off, fixed or auto)", s)
}

// specFromQuery builds an upload spec from /solve/matrix query parameters
// (same knobs as the JSON body, minus problem/size/rhs).
func specFromQuery(q map[string][]string) (*spec, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	req := SolveRequest{
		Method:   get("method"),
		Smoother: get("smoother"),
		Mode:     get("mode"),
		Damping:  get("damping"),
		Solver:   get("solver"),
	}
	var err error
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"omega", &req.Omega}, {"damp_omega", &req.DampOmega}, {"damp_min_omega", &req.DampMinOmega}, {"tol", &req.Tol}} {
		if s := get(f.name); s != "" {
			if *f.dst, err = strconv.ParseFloat(s, 64); err != nil {
				return nil, fmt.Errorf("bad %s %q", f.name, s)
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"cycles", &req.Cycles}, {"threads", &req.Threads}, {"maxiter", &req.MaxIter}, {"restart", &req.Restart}} {
		if s := get(f.name); s != "" {
			if *f.dst, err = strconv.Atoi(s); err != nil {
				return nil, fmt.Errorf("bad %s %q", f.name, s)
			}
		}
	}
	if s := get("seed"); s != "" {
		if req.Seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("bad seed %q", s)
		}
	}
	if s := get("damp_staleness_ref"); s != "" {
		if req.DampStalenessRef, err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("bad damp_staleness_ref %q", s)
		}
	}
	if s := get("damp_rollback"); s != "" {
		if req.DampRollback, err = strconv.ParseBool(s); err != nil {
			return nil, fmt.Errorf("bad damp_rollback %q", s)
		}
	}
	if s := get("timeout_ms"); s != "" {
		if req.TimeoutMS, err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("bad timeout_ms %q", s)
		}
	}
	if s := get("return_x"); s != "" {
		if req.ReturnX, err = strconv.ParseBool(s); err != nil {
			return nil, fmt.Errorf("bad return_x %q", s)
		}
	}
	if req.Omega == 0 {
		req.Omega = 0.9 // uploads have no family default
	}
	return specFromRequest(&req)
}

func parseMethod(s string) (engine.Method, error) {
	switch strings.ToLower(s) {
	case "", "multadd":
		return engine.Multadd, nil
	case "mult":
		return engine.Mult, nil
	case "afacx":
		return engine.AFACx, nil
	case "bpx":
		return engine.BPX, nil
	}
	return 0, fmt.Errorf("unknown method %q (want mult, multadd, afacx, bpx)", s)
}

func parseSmoother(s string) (smoother.Kind, error) {
	switch strings.ToLower(s) {
	case "", "w-jacobi", "wjacobi", "jacobi":
		return smoother.WJacobi, nil
	case "l1-jacobi", "l1jacobi", "l1":
		return smoother.L1Jacobi, nil
	case "hybrid-jgs", "hybrid", "jgs":
		return smoother.HybridJGS, nil
	case "async-gs", "asyncgs", "gs":
		return smoother.AsyncGS, nil
	case "l1-hybrid-jgs", "l1-hybrid":
		return smoother.L1HybridJGS, nil
	}
	return 0, fmt.Errorf("unknown smoother %q", s)
}

func methodName(m engine.Method) string { return m.String() }
