// Package asyncmg is a from-scratch Go implementation of asynchronous
// additive multigrid methods, reproducing "Asynchronous Multigrid Methods"
// (Wolfson-Pou & Chow, 2019).
//
// The package provides:
//
//   - problem generators: 3-D Laplacians on 7-point and 27-point stencils
//     (assembled or matrix-free), and P1 tetrahedral FEM assemblies
//     (Laplace on a ball, multi-material linear elasticity on a cantilever
//     beam);
//   - a classical AMG setup phase (strength of connection, HMIS coarsening
//     with aggressive levels, classical-modified and multipass
//     interpolation, Galerkin products) standing in for BoomerAMG;
//   - four smoothers: weighted Jacobi, ℓ1-Jacobi, hybrid Jacobi-Gauss-Seidel
//     and asynchronous Gauss-Seidel;
//   - synchronous solvers: the multiplicative V(1,1)-cycle (Mult), the
//     additive Multadd and AFACx methods, and BPX;
//   - sequential simulation models of asynchronous multigrid (semi-async and
//     full-async, solution- and residual-based);
//   - a goroutine-team asynchronous runtime with the global-res and
//     local-res algorithms, lock-write and atomic-write modes, the
//     residual-based r-Multadd variant, and the paper's two stopping
//     criteria;
//   - multigrid-preconditioned PCG and FGMRES, and a message-passing
//     distributed solve with fault injection.
//
// # Quick start
//
//	a := asyncmg.Laplacian27pt(20)              // 8000-row Poisson problem
//	setup, _ := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
//	b := asyncmg.RandomRHS(a.Rows, 1)
//	res, _ := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
//	    Method:    asyncmg.Multadd,
//	    Write:     asyncmg.AtomicWrite,
//	    Res:       asyncmg.LocalRes,
//	    Threads:   8,
//	    MaxCycles: 30,
//	})
//	fmt.Println(res.RelRes)
//
// The subpackage structure is internal; the library surface is exported
// here via type aliases, so godoc for this one package documents it. The
// experiment harness and the solver service are commands (cmd/mgbench,
// the one paper driver, and cmd/mgserve), not part of this API.
package asyncmg

import (
	"context"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/distmem"
	"asyncmg/internal/engine"
	"asyncmg/internal/fault"
	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/model"
	"asyncmg/internal/mtx"
	"asyncmg/internal/obs"
	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
	"asyncmg/internal/spectral"
)

// ---- Parallel kernel configuration ----

// SetParallelKernels configures the shared worker pool behind the
// goroutine-sharded SpMV/residual/axpy/reduction kernels that the cycle
// engine runs on. workers is the pool size (0 restores GOMAXPROCS);
// threshold is the minimum work (nonzeros for matrix kernels, elements
// for vector kernels) below which kernels stay serial (0 restores the
// default). Sharded matrix kernels and axpys are bitwise-identical to
// their serial forms for any worker count; only reductions (dot/norm)
// can differ at rounding level.
func SetParallelKernels(workers, threshold int) {
	par.SetWorkers(workers)
	par.SetThreshold(threshold)
}

// ---- Sparse linear algebra ----

// Matrix is a sparse matrix in compressed sparse row format.
type Matrix = sparse.CSR

// COO is a coordinate-format assembly buffer convertible to a Matrix.
type COO = sparse.COO

// NewCOO returns an empty assembly buffer for a rows×cols matrix.
func NewCOO(rows, cols, nnzHint int) *COO { return sparse.NewCOO(rows, cols, nnzHint) }

// ---- Problem generators ----

// Laplacian7pt builds the 3-D 7-point Laplacian on an n×n×n grid (the
// paper's "7pt" test set).
func Laplacian7pt(n int) *Matrix { return grid.Laplacian7pt(n) }

// Laplacian27pt builds the 3-D 27-point Laplacian on an n×n×n grid (the
// paper's "27pt" test set).
func Laplacian27pt(n int) *Matrix { return grid.Laplacian27pt(n) }

// RandomRHS returns a right-hand side with entries uniform in [-1, 1],
// reproducible under seed (the paper's test protocol).
func RandomRHS(n int, seed int64) []float64 { return grid.RandomRHS(n, seed) }

// Mesh is a conforming tetrahedral mesh.
type Mesh = fem.Mesh

// FEMProblem is an assembled, Dirichlet-reduced linear system.
type FEMProblem = fem.Problem

// Material is an isotropic linear-elastic material (Young's modulus E,
// Poisson ratio Nu).
type Material = fem.Material

// BallMesh builds a tetrahedral mesh of the unit ball (the substitute for
// the paper's NURBS sphere).
func BallMesh(n int) *Mesh { return fem.BallMesh(n) }

// BeamMesh builds the multi-material cantilever beam mesh.
func BeamMesh(n int) *Mesh { return fem.BeamMesh(n) }

// AssembleLaplace assembles the P1 stiffness matrix of -Δu with homogeneous
// Dirichlet conditions on the mesh's boundary nodes.
func AssembleLaplace(m *Mesh) (*FEMProblem, error) { return fem.AssembleLaplace(m) }

// AssembleElasticity assembles 3-D isotropic linear elasticity with clamped
// boundary nodes.
func AssembleElasticity(m *Mesh, mats []Material) (*FEMProblem, error) {
	return fem.AssembleElasticity(m, mats)
}

// DefaultBeamMaterials is the paper-style three-material beam configuration.
func DefaultBeamMaterials() []Material { return fem.DefaultBeamMaterials() }

// ---- AMG setup ----

// AMGOptions configures the algebraic multigrid setup phase.
type AMGOptions = amg.Options

// DefaultAMGOptions mirrors the paper's BoomerAMG configuration: HMIS
// coarsening, classical modified interpolation, one aggressive level.
func DefaultAMGOptions() AMGOptions { return amg.DefaultOptions() }

// SparsifyOptions configures post-RAP sparsification of interior coarse
// operators (AMGOptions.Sparsify): entries weak under the classical
// strength measure at Theta — as seen from both endpoint rows — are
// dropped with compensation, and a per-level convergence guard reverts
// any level whose removal degrades a deterministic probe cycle beyond
// GuardTol. The zero value disables sparsification.
type SparsifyOptions = amg.SparsifyOptions

// ---- Smoothers ----

// SmootherKind identifies one of the four smoothers of the paper.
type SmootherKind = smoother.Kind

// SmootherConfig selects and parameterizes a smoother.
type SmootherConfig = smoother.Config

// The four smoothers evaluated in the paper, plus the ℓ1 variant of hybrid
// JGS (the divergence-proof hybrid smoother of the paper's reference [23]).
const (
	WJacobi     = smoother.WJacobi
	L1Jacobi    = smoother.L1Jacobi
	HybridJGS   = smoother.HybridJGS
	AsyncGS     = smoother.AsyncGS
	L1HybridJGS = smoother.L1HybridJGS
)

// DefaultSmoother returns ω-Jacobi with ω = 0.9.
func DefaultSmoother() SmootherConfig { return smoother.DefaultConfig() }

// ---- Multigrid setup and synchronous solvers ----

// Setup bundles the hierarchy, per-level smoothers, and the smoothed
// interpolants of Multadd.
type Setup = engine.Engine

// Method selects a multigrid algorithm.
type Method = engine.Method

// The multigrid methods.
const (
	Mult    = engine.Mult
	Multadd = engine.Multadd
	AFACx   = engine.AFACx
	BPX     = engine.BPX
)

// NewSetup builds the AMG hierarchy and all solver operators for a.
func NewSetup(a *Matrix, amgOpt AMGOptions, smoCfg SmootherConfig) (*Setup, error) {
	return engine.New(a, amgOpt, smoCfg)
}

// ---- Operator abstraction: matrix-free fine levels, mixed precision ----

// Operator is the storage-agnostic linear operator the cycle engine runs
// on: float64 CSR (the default), float32 CSR with float64 accumulation,
// or the matrix-free stencil operators below.
type Operator = op.Operator

// Precision selects the storage precision of the solver's hierarchy view
// (AMGOptions.CoarsePrecision).
type Precision = op.Precision

// Hierarchy storage-precision policies. Float64 keeps every matrix in
// float64 CSR (the default, bitwise-pinned by the golden tests);
// CoarseFloat32 re-stores the coarse operators (levels >= 1) and all
// interpolants in float32 with float64 accumulation — about half the
// hierarchy bytes at unchanged iteration counts on the paper's problems.
const (
	Float64       = op.Float64
	CoarseFloat32 = op.CoarseFloat32
)

// Stencil7 is the matrix-free operator of the 7-point Laplacian on an
// n×n×n grid: Laplacian7pt(n) without storing the matrix. Its kernels
// are bitwise-identical to the CSR kernels on the same problem. It is the
// one structured operator type, op.Stencil, as is Stencil27.
type Stencil7 = op.Stencil

// Stencil27 is the matrix-free 27-point Laplacian operator.
type Stencil27 = op.Stencil

// NewStencil7 builds the matrix-free 7-point Laplacian on an n×n×n grid.
func NewStencil7(n int) *Stencil7 { return op.NewStencil7(n) }

// NewStencil27 builds the matrix-free 27-point Laplacian operator.
func NewStencil27(n int) *Stencil27 { return op.NewStencil27(n) }

// NewSetupMatrixFree builds the hierarchy and all solver operators from
// an arbitrary fine-level operator. A matrix-free stencil coarsens itself
// geometrically (trilinear 2h interpolation plus a Galerkin product, one
// row per boundary class) and the AMG setup continues algebraically from
// the first coarse matrix — the fine-level matrix is never materialized. A CSR-backed operator
// takes the standard NewSetup path.
func NewSetupMatrixFree(a Operator, amgOpt AMGOptions, smoCfg SmootherConfig) (*Setup, error) {
	return engine.NewOperator(a, amgOpt, smoCfg)
}

// SolveSync runs tmax sequential V-cycles of the chosen method from x = 0
// and returns the final iterate and the relative-residual history.
func SolveSync(s *Setup, m Method, b []float64, tmax int) (x []float64, hist []float64) {
	return s.Solve(m, b, tmax)
}

// SolveSyncDamped runs tmax uniformly damped additive V-cycles (Multadd
// or AFACx) with every grid's correction scaled by omega before
// prolongation: the deterministic sequential reference for the
// asynchronous damped path (omega = 1 matches SolveSync bit for bit).
func SolveSyncDamped(s *Setup, m Method, b []float64, tmax int, omega float64) (x []float64, hist []float64) {
	return s.SolveDamped(m, b, tmax, omega)
}

// ---- Asynchronous models (Section III) ----

// ModelVariant selects one of the three §III simulation models.
type ModelVariant = model.Variant

// ModelConfig parameterizes a model simulation run.
type ModelConfig = model.Config

// ModelResult reports a simulation outcome.
type ModelResult = model.Result

// The three asynchronous models.
const (
	SemiAsync         = model.SemiAsync
	FullAsyncSolution = model.FullAsyncSolution
	FullAsyncResidual = model.FullAsyncResidual
)

// SimulateModel runs one sequential simulation of asynchronous multigrid.
func SimulateModel(s *Setup, b []float64, cfg ModelConfig) (*ModelResult, error) {
	return model.Run(s, b, cfg)
}

// ---- Asynchronous runtime (Section IV) ----

// AsyncConfig parameterizes a parallel (synchronous or asynchronous) solve.
type AsyncConfig = async.Config

// AsyncResult reports a parallel solve's outcome.
type AsyncResult = async.Result

// WriteMode selects lock-write or atomic-write.
type WriteMode = async.WriteMode

// ResMode selects local-res, global-res, or the residual-based update.
type ResMode = async.ResMode

// StopCriterion selects the paper's stopping rule.
type StopCriterion = async.Criterion

// DampingPolicy parameterizes the per-grid correction damping of the
// additive parallel solvers (stabilised async): off, fixed ω, or the
// adaptive staleness-driven controller, plus the rollback-last guard.
type DampingPolicy = async.DampingPolicy

// DampMode selects the damping policy's mode.
type DampMode = async.DampMode

// Write modes, residual modes, stopping criteria and damping modes.
const (
	LockWrite   = async.LockWrite
	AtomicWrite = async.AtomicWrite

	LocalRes    = async.LocalRes
	GlobalRes   = async.GlobalRes
	ResidualRes = async.ResidualRes

	Criterion1 = async.Criterion1
	Criterion2 = async.Criterion2

	DampOff   = async.DampOff
	DampFixed = async.DampFixed
	DampAuto  = async.DampAuto
)

// SolveAsync runs the configured parallel multigrid solver on A x = b.
func SolveAsync(s *Setup, b []float64, cfg AsyncConfig) (*AsyncResult, error) {
	return async.Solve(context.Background(), s, b, cfg)
}

// SolveAsyncCtx is SolveAsync with cancellation: the solve stops at the
// next cycle boundary and returns ctx's error when ctx is cancelled or its
// deadline passes.
func SolveAsyncCtx(ctx context.Context, s *Setup, b []float64, cfg AsyncConfig) (*AsyncResult, error) {
	return async.Solve(ctx, s, b, cfg)
}

// ---- Krylov solvers ----

// CGOptions configures a (preconditioned) conjugate gradient solve.
type CGOptions = krylov.Options

// CGResult reports a CG solve.
type CGResult = krylov.Result

// Preconditioner applies z = M⁻¹r inside PCG.
type Preconditioner = krylov.Preconditioner

// MGPreconditioner applies one multigrid cycle as a preconditioner — the
// proper use of BPX per the paper ("BPX is typically used as a
// preconditioner").
type MGPreconditioner = krylov.MGPreconditioner

// DefaultCGOptions returns Tol 1e-9, MaxIter 1000, no preconditioner.
func DefaultCGOptions() CGOptions { return krylov.DefaultOptions() }

// SolveCG runs (preconditioned) conjugate gradients on A x = b from x = 0.
func SolveCG(a *Matrix, b []float64, opt CGOptions) (*CGResult, error) {
	return krylov.Solve(a, b, opt)
}

// NewMGPreconditioner builds a one-cycle multigrid preconditioner.
func NewMGPreconditioner(s *Setup, m Method) *MGPreconditioner {
	return krylov.NewMGPreconditioner(s, m)
}

// ErrKrylovBreakdown is returned when PCG meets an indefinite operator or
// preconditioner, or FGMRES hits a singular projection.
var ErrKrylovBreakdown = krylov.ErrBreakdown

// SolvePCG runs (preconditioned) conjugate gradients on any Operator —
// assembled CSR, matrix-free stencil, or float32 view — from x = 0.
// The operator and preconditioner must be SPD (Mult, Multadd and BPX
// cycles qualify; AFACx does not).
func SolvePCG(a Operator, b []float64, opt CGOptions) (CGResult, error) {
	return krylov.PCG(a, b, opt)
}

// SolveFGMRES runs flexible GMRES(m) with restarts on any Operator from
// x = 0. Unlike PCG it tolerates non-symmetric operators and
// non-SPD/varying preconditioners (AFACx, asynchronous cycles).
func SolveFGMRES(a Operator, b []float64, opt CGOptions) (CGResult, error) {
	return krylov.FGMRES(a, b, opt)
}

// ---- Distributed-memory simulation ----

// DistConfig parameterizes a distributed-memory asynchronous solve (message
// passing between grid processes; the paper's distributed-memory outlook).
// Its Fault field injects message loss, duplication, reordering, worker
// crashes and dead grids; the solver's watchdog/respawn/retirement
// machinery recovers from them (see DistResult's fault counters).
type DistConfig = distmem.Config

// DistResult reports a distributed solve, including fault-injection and
// recovery counters (drops, crashes, respawns, retired grids, ...).
type DistResult = distmem.Result

// FaultConfig parameterizes the deterministic fault-injection transport of
// the distributed simulation (DistConfig.Fault).
type FaultConfig = fault.Config

// SolveDistributed runs the message-passing asynchronous additive solve.
func SolveDistributed(s *Setup, b []float64, cfg DistConfig) (*DistResult, error) {
	return distmem.Solve(context.Background(), s, b, cfg)
}

// SolveDistributedCtx is SolveDistributed with cancellation: the solve
// returns ctx's error when ctx fires before completion — the safety net
// for fault schedules the recovery machinery cannot outrun (e.g. a network
// that drops everything with the watchdog disabled).
func SolveDistributedCtx(ctx context.Context, s *Setup, b []float64, cfg DistConfig) (*DistResult, error) {
	return distmem.Solve(ctx, s, b, cfg)
}

// ---- Matrix Market I/O ----

// ReadMatrixMarketFile reads a Matrix Market file from disk.
func ReadMatrixMarketFile(path string) (*Matrix, error) { return mtx.ReadFile(path) }

// WriteMatrixMarketFile writes a Matrix to a Matrix Market file.
func WriteMatrixMarketFile(path string, a *Matrix) error { return mtx.WriteFile(path, a) }

// ---- Convergence diagnostics ----

// AsyncSmootherRadius estimates ρ(|I − diag(scale)·A|): the asynchronous
// smoother iteration (the paper's Eq. 5) converges when this is below 1.
// SmootherScaling gives scale for a smoother configuration.
func AsyncSmootherRadius(a *Matrix, scale []float64) (float64, error) {
	return spectral.AsyncSmootherRadius(a, scale)
}

// SpectralRadius estimates the spectral radius of a non-negative matrix via
// the power method.
func SpectralRadius(a *Matrix, tol float64, maxIter int) (float64, error) {
	return spectral.Radius(a, tol, maxIter)
}

// SmootherScaling returns the diagonal scaling vector of a smoother's
// iteration matrix G = I − diag(s)·A (ω/a_ii for ω-Jacobi and the
// GS-family smoothers' interpolant scaling, 1/Σ|a_ij| for ℓ1-Jacobi).
func SmootherScaling(a *Matrix, cfg SmootherConfig) ([]float64, error) {
	return smoother.InterpolantScaling(a, cfg)
}

// ---- Observability ----

// Observer is the zero-allocation metrics sink every solver can report
// into: per-grid relaxation and correction counters, the
// correction-staleness histogram (the empirical read delay δ),
// residual-trace events, the unified fault/recovery counters of the
// distributed solver, and worker-pool utilization. Attach one via
// AsyncConfig.Observer, DistConfig.Observer, ModelConfig.Observer,
// CGOptions.Observer, or Setup.SetObserver (for the synchronous cycles);
// a nil observer disables all instrumentation. All recording is atomic
// and allocation-free, so one observer may be shared across concurrent
// solves.
type Observer = obs.Observer

// NewObserver builds an observer for solves over at most `grids` grids
// (hierarchy levels). Chain WithTrace(capacity) to retain an event
// timeline.
func NewObserver(grids int) *Observer { return obs.New(grids) }

// WriteMetricsFile writes o's exposition text to path (truncating).
func WriteMetricsFile(path string, o *Observer) error { return obs.WriteMetricsFile(path, o) }
