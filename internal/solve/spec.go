// Package solve is the one description of a solve request. The paper's
// knob set — method (Mult / Multadd / AFACx / BPX), smoother, ω, t_max,
// mode, threads, the outer Krylov solver and the damping policy — is read
// here from a JSON body (Parse), a query string (FromQuery) or a command
// line (Spec.Bind), checked and defaulted by one Validate, and dispatched
// to the synchronous, Krylov, asynchronous or distributed solver by one
// Run. The service, the cluster router and mgsolve all go through it, so
// a knob has one name and one meaning on every entry point.
package solve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/harness"
	"asyncmg/internal/krylov"
	"asyncmg/internal/smoother"
)

// Spec is a solve request as a client writes it: the JSON body of POST
// /solve. Matrix uploads (POST /solve/matrix) carry the same knobs as query
// parameters, and mgsolve as flags, under the same names. A zero field
// takes its default. The knob table (knobs) documents each field, `mgsolve
// -h` prints it, and Validate holds every rule.
type Spec struct {
	Problem  string  `json:"problem"`
	Size     int     `json:"size"`
	Method   string  `json:"method,omitempty"`
	Smoother string  `json:"smoother,omitempty"`
	Omega    float64 `json:"omega,omitempty"`
	Cycles   int     `json:"cycles,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	// RHS is an explicit right-hand side (JSON only); empty generates the
	// paper protocol's reproducible random one from Seed.
	RHS              []float64 `json:"rhs,omitempty"`
	Seed             int64     `json:"seed,omitempty"`
	TimeoutMS        int64     `json:"timeout_ms,omitempty"`
	ReturnX          bool      `json:"return_x,omitempty"`
	Solver           string    `json:"solver,omitempty"`
	Tol              float64   `json:"tol,omitempty"`
	MaxIter          int       `json:"maxiter,omitempty"`
	Restart          int       `json:"restart,omitempty"`
	Damping          string    `json:"damping,omitempty"`
	DampOmega        float64   `json:"damp_omega,omitempty"`
	DampMinOmega     float64   `json:"damp_min_omega,omitempty"`
	DampStalenessRef int64     `json:"damp_staleness_ref,omitempty"`
	DampRollback     bool      `json:"damp_rollback,omitempty"`
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

// Request-shape limits, enforced by Validate before any work happens.
// Decoding is the service's untrusted-input surface (fuzzed), so every
// bound lives here.
const (
	MaxCycles     = 10_000
	MaxThreads    = 1 << 10
	MaxSize       = 1 << 20
	MaxRHSEntries = 1 << 26
	MaxKrylovIter = 10_000
	MaxRestart    = 1 << 10

	DefaultKrylovTol     = 1e-8
	DefaultKrylovMaxIter = 500
)

// Plan is a validated Spec with every default filled in and every name
// resolved to its enum.
type Plan struct {
	Problem  string // harness family, or "" for an uploaded matrix
	Size     int
	Method   engine.Method
	Smoother smoother.Config
	Cycles   int
	Mode     string // ModeSync, ModeAsync or ModeDist
	Threads  int
	RHS      []float64
	Seed     int64
	Timeout  time.Duration
	ReturnX  bool
	Damping  async.DampingPolicy
	Solver   string // SolverCycle, SolverPCG or SolverFGMRES
	Tol      float64
	MaxIter  int
	Restart  int

	// Write, Res and Perturb tune the asynchronous runtime beyond what a
	// Spec says. Validate leaves them at their zero values (lock-write,
	// local-res, no perturbation); only mgsolve overrides them.
	Write   async.WriteMode
	Res     async.ResMode
	Perturb async.Perturb
}

// Parse decodes and validates a /solve JSON body. It must never panic on
// arbitrary input (fuzzed contract); unknown fields are an error.
func Parse(body []byte) (*Plan, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return s.Validate()
}

// FromQuery validates the knobs of a /solve/matrix query string: those of
// the JSON body minus problem, size and rhs. Empty values count as unset;
// unknown parameters are ignored.
func FromQuery(q url.Values) (*Plan, error) {
	var s Spec
	for _, k := range s.knobs() {
		if k.in&inQuery == 0 {
			continue
		}
		if v := q.Get(k.name); v != "" {
			if err := k.val.Set(v); err != nil {
				return nil, fmt.Errorf("bad %s %q", k.name, v)
			}
		}
	}
	return s.Validate()
}

// Bind registers the Spec's command-line knobs on fs under their JSON
// names, with the Spec's current values as the defaults. Flag values parse
// exactly like query parameters.
func (s *Spec) Bind(fs *flag.FlagSet) {
	for _, k := range s.knobs() {
		if k.in&inFlags != 0 {
			fs.Var(k.val, k.name, k.usage)
		}
	}
}

// Where a knob may be set besides the JSON body.
const (
	inQuery = 1 << iota
	inFlags
)

type knob struct {
	name, usage string
	val         flag.Value
	in          int
}

// knobs is the one table of the Spec fields a query string or a command
// line sets, by JSON name.
func (s *Spec) knobs() []knob {
	return []knob{
		{"problem", "generated problem family: 7pt, 27pt, mfem-laplace, mfem-elasticity, conv-diff", (*stringValue)(&s.Problem), inFlags},
		{"size", "mesh parameter: grid length or mesh resolution, in [2, 2^20]", (*intValue)(&s.Size), inFlags},
		{"method", "multigrid method: mult, multadd, afacx, bpx (default multadd)", (*stringValue)(&s.Method), inQuery | inFlags},
		{"smoother", "smoother: w-jacobi, l1-jacobi, hybrid-jgs, async-gs, l1-hybrid-jgs (default w-jacobi)", (*stringValue)(&s.Smoother), inQuery | inFlags},
		{"omega", "Jacobi weight in [0, 2] (0 = family default: 0.9 stencil and uploads, 0.5 FEM)", (*floatValue)(&s.Omega), inQuery | inFlags},
		{"cycles", "t_max: V-cycles, or corrections per grid in async/dist mode (default 30)", (*intValue)(&s.Cycles), inQuery | inFlags},
		{"mode", "sync, async (goroutine teams) or dist (message passing; multadd, afacx) (default sync)", (*stringValue)(&s.Mode), inQuery | inFlags},
		{"threads", "goroutines for mode async (default 8)", (*intValue)(&s.Threads), inQuery | inFlags},
		{"seed", "seed of the random right-hand side", (*int64Value)(&s.Seed), inQuery | inFlags},
		{"timeout_ms", "solve deadline in milliseconds, capped by the server's (0 = the server's)", (*int64Value)(&s.TimeoutMS), inQuery},
		{"return_x", "return the solution vector", (*boolValue)(&s.ReturnX), inQuery},
		{"solver", "outer solver: cycle, pcg or fgmres (AMG-preconditioned Krylov, mode sync) (default cycle)", (*stringValue)(&s.Solver), inQuery | inFlags},
		{"tol", "relative-residual tolerance for pcg|fgmres (default 1e-8)", (*floatValue)(&s.Tol), inQuery | inFlags},
		{"maxiter", "iteration cap for pcg|fgmres (default 500)", (*intValue)(&s.MaxIter), inQuery | inFlags},
		{"restart", "FGMRES restart length m (default 30)", (*intValue)(&s.Restart), inQuery | inFlags},
		{"damping", "correction damping for mode async, multadd/afacx: off, fixed or auto (default off)", (*stringValue)(&s.Damping), inQuery | inFlags},
		{"damp_omega", "damping factor: the constant for fixed, the starting/maximum factor for auto (0 = 1)", (*floatValue)(&s.DampOmega), inQuery | inFlags},
		{"damp_min_omega", "floor of the adaptive damping factor (0 = solver default)", (*floatValue)(&s.DampMinOmega), inQuery},
		{"damp_staleness_ref", "read age counted as fresh by auto damping (0 = the number of grids)", (*int64Value)(&s.DampStalenessRef), inQuery},
		{"damp_rollback", "abort a diverging async solve and discard its iterate", (*boolValue)(&s.DampRollback), inQuery | inFlags},
	}
}

// The knob values parse with strconv directly (base 10, no flag-package
// prefixes), so a query parameter and a flag accept the same strings.
type (
	stringValue string
	intValue    int
	int64Value  int64
	floatValue  float64
	boolValue   bool
)

func (v *stringValue) Set(s string) error { *v = stringValue(s); return nil }
func (v *stringValue) String() string     { return string(*v) }

func (v *intValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	*v = intValue(n)
	return err
}
func (v *intValue) String() string { return strconv.Itoa(int(*v)) }

func (v *int64Value) Set(s string) error {
	n, err := strconv.ParseInt(s, 10, 64)
	*v = int64Value(n)
	return err
}
func (v *int64Value) String() string { return strconv.FormatInt(int64(*v), 10) }

func (v *floatValue) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	*v = floatValue(f)
	return err
}
func (v *floatValue) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }

func (v *boolValue) Set(s string) error {
	b, err := strconv.ParseBool(s)
	*v = boolValue(b)
	return err
}
func (v *boolValue) String() string   { return strconv.FormatBool(bool(*v)) }
func (v *boolValue) IsBoolFlag() bool { return true }

// Validate checks every knob against its bounds and resolves defaults.
// Problem may be empty only for matrix uploads (the caller supplies the
// operator). Every error is the caller's fault (HTTP 400).
func (s *Spec) Validate() (*Plan, error) {
	p := &Plan{Problem: s.Problem, Size: s.Size, RHS: s.RHS, Seed: s.Seed, ReturnX: s.ReturnX}
	if s.Problem != "" {
		if !slices.Contains(harness.KnownProblems(), s.Problem) {
			return nil, fmt.Errorf("unknown problem %q (want one of %v)", s.Problem, harness.KnownProblems())
		}
		if s.Size < 2 || s.Size > MaxSize {
			return nil, fmt.Errorf("size %d outside [2, %d]", s.Size, MaxSize)
		}
	}
	var err error
	if p.Method, err = parseMethod(s.Method); err != nil {
		return nil, err
	}
	kind, err := parseSmoother(s.Smoother)
	if err != nil {
		return nil, err
	}
	omega := s.Omega
	if math.IsNaN(omega) || math.IsInf(omega, 0) || omega < 0 || omega > 2 {
		return nil, fmt.Errorf("omega %v outside [0, 2]", omega)
	}
	if omega == 0 {
		omega = harness.DefaultOmega(s.Problem)
	}
	p.Smoother = smoother.Config{Kind: kind, Omega: omega, Blocks: 1}
	if p.Cycles, err = count("cycles", s.Cycles, 30, MaxCycles); err != nil {
		return nil, err
	}
	switch s.Mode {
	case "", ModeSync:
		p.Mode = ModeSync
	case ModeAsync, ModeDist:
		p.Mode = s.Mode
	default:
		return nil, fmt.Errorf("unknown mode %q (want sync, async or dist)", s.Mode)
	}
	additive := p.Method == engine.Multadd || p.Method == engine.AFACx
	if p.Mode == ModeDist && !additive {
		return nil, fmt.Errorf("dist mode supports multadd and afacx only")
	}
	if p.Threads, err = count("threads", s.Threads, 8, MaxThreads); err != nil {
		return nil, err
	}
	if len(p.RHS) > MaxRHSEntries {
		return nil, fmt.Errorf("rhs too large (%d entries)", len(p.RHS))
	}
	for i, v := range p.RHS {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("rhs[%d] is non-finite", i)
		}
	}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", s.TimeoutMS)
	}
	p.Timeout = time.Duration(s.TimeoutMS) * time.Millisecond
	dampMode, err := parseDampMode(s.Damping)
	if err != nil {
		return nil, err
	}
	p.Damping = async.DampingPolicy{
		Mode:         dampMode,
		Omega:        s.DampOmega,
		MinOmega:     s.DampMinOmega,
		StalenessRef: s.DampStalenessRef,
		Rollback:     s.DampRollback,
	}
	// Bounds (and NaN/Inf) are rejected even with damping off, so a bad
	// damp_omega is always an error rather than a silently ignored knob.
	if err := p.Damping.Validate(); err != nil {
		return nil, err
	}
	if dampMode != async.DampOff || s.DampRollback {
		if p.Mode != ModeAsync {
			return nil, fmt.Errorf("damping requires mode async, got %q", p.Mode)
		}
		if !additive {
			return nil, fmt.Errorf("damping applies to the additive methods (multadd, afacx), got %q", p.Method)
		}
	}
	if err := s.validateSolver(p); err != nil {
		return nil, err
	}
	return p, nil
}

// validateSolver resolves the outer-solver selection. The Krylov knobs
// (tol, maxiter, restart) are rejected — not ignored — when the solver
// they configure is not selected, so a typo'd request fails loudly.
func (s *Spec) validateSolver(p *Plan) error {
	switch strings.ToLower(s.Solver) {
	case "", SolverCycle:
		p.Solver = SolverCycle
	case SolverPCG, "cg":
		p.Solver = SolverPCG
	case SolverFGMRES, "gmres":
		p.Solver = SolverFGMRES
	default:
		return fmt.Errorf("unknown solver %q (want cycle, pcg or fgmres)", s.Solver)
	}
	if p.Solver == SolverCycle {
		if s.Tol != 0 || s.MaxIter != 0 || s.Restart != 0 {
			return fmt.Errorf("tol, maxiter and restart apply to the Krylov solvers (pcg, fgmres)")
		}
		return nil
	}
	if p.Mode != ModeSync {
		return fmt.Errorf("solver %q requires mode sync, got %q", p.Solver, p.Mode)
	}
	tol := s.Tol
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 || tol >= 1 {
		return fmt.Errorf("tol %v outside (0, 1)", tol)
	}
	if tol == 0 {
		tol = DefaultKrylovTol
	}
	p.Tol = tol
	var err error
	if p.MaxIter, err = count("maxiter", s.MaxIter, DefaultKrylovMaxIter, MaxKrylovIter); err != nil {
		return err
	}
	switch p.Solver {
	case SolverPCG:
		if s.Restart != 0 {
			return fmt.Errorf("restart applies to fgmres only")
		}
		// PCG needs an SPD preconditioner: one symmetric cycle (mult), or
		// an additive cycle built from SPD level terms (multadd, bpx).
		// AFACx is not SPD — route non-symmetric preconditioning through
		// fgmres instead.
		if p.Method == engine.AFACx {
			return fmt.Errorf("pcg needs an SPD preconditioner (mult, multadd or bpx); use fgmres with afacx")
		}
	case SolverFGMRES:
		p.Restart, err = count("restart", s.Restart, krylov.DefaultRestart, MaxRestart)
	}
	return err
}

// count resolves a positive count knob: 0 takes def, and the result must
// lie in [1, max].
func count(name string, v, def, max int) (int, error) {
	if v == 0 {
		v = def
	}
	if v < 1 || v > max {
		return 0, fmt.Errorf("%s %d outside [1, %d]", name, v, max)
	}
	return v, nil
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
	return 0, fmt.Errorf("unknown smoother %q (want w-jacobi, l1-jacobi, hybrid-jgs, async-gs, l1-hybrid-jgs)", s)
}

// RightHandSide returns the plan's explicit right-hand side, checked
// against the operator's n rows, or the paper protocol's random one from
// Seed when the spec gave none.
func (p *Plan) RightHandSide(n int) ([]float64, error) {
	if len(p.RHS) == 0 {
		return grid.RandomRHS(n, p.Seed), nil
	}
	if len(p.RHS) != n {
		return nil, fmt.Errorf("rhs has %d entries, operator has %d rows", len(p.RHS), n)
	}
	return p.RHS, nil
}

// ProblemKey is the hierarchy identity of a generated problem: the node's
// cache key and the router's shard key. The smoother configuration is
// part of it because the engine bakes smoothers and smoothed interpolants
// P̄ into the setup; aliases ("jacobi", an omitted smoother, an omitted ω)
// resolve to one key because they resolve to one configuration.
func ProblemKey(problem string, size int, smo smoother.Config) string {
	return fmt.Sprintf("prob:%s:%d:%s", problem, size, smoKeyPart(smo))
}

// MatrixKey is the hierarchy identity of an uploaded matrix, from the
// sha256 fingerprint of its decompressed MatrixMarket bytes.
func MatrixKey(fingerprint string, smo smoother.Config) string {
	return fmt.Sprintf("mtx:%s:%s", fingerprint, smoKeyPart(smo))
}

func smoKeyPart(smo smoother.Config) string {
	return fmt.Sprintf("smo=%d:omega=%.17g:blocks=%d", smo.Kind, smo.Omega, smo.Blocks)
}
