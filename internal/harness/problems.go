// Package harness reproduces the paper's evaluation: it generates the four
// test-matrix families, runs the measurement protocol of Section V (mean of
// R runs, cycle sweeps, first-crossing time-to-tolerance), and prints the
// rows and series of Table I and Figures 1, 2, 4, 5 and 6.
package harness

import (
	"fmt"

	"asyncmg/internal/amg"
	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// Problem names accepted by BuildProblem.
const (
	Problem7pt        = "7pt"
	Problem27pt       = "27pt"
	ProblemLaplaceFEM = "mfem-laplace"
	ProblemElasticity = "mfem-elasticity"
	// ProblemConvDiff is the non-symmetric upwind convection-diffusion
	// operator -Δu + β·∇u (β = ConvDiffBeta): the FGMRES target problem.
	// It is not one of the paper's four test sets, so AllProblems (which
	// drives the paper-protocol sweeps and their golden baselines) does
	// not include it; KnownProblems does.
	ProblemConvDiff = "conv-diff"
)

// ConvDiffBeta is the upwind convection strength of ProblemConvDiff,
// chosen strongly convection-dominated so that symmetric-assumption
// multigrid cycling degrades while preconditioned FGMRES converges.
const ConvDiffBeta = 4.0

// AllProblems lists the four test sets of the paper in its order.
func AllProblems() []string {
	return []string{Problem7pt, Problem27pt, ProblemLaplaceFEM, ProblemElasticity}
}

// KnownProblems lists every family BuildProblem accepts: the paper's four
// plus the non-symmetric convection-diffusion extension.
func KnownProblems() []string {
	return append(AllProblems(), ProblemConvDiff)
}

// ProblemOptions applies a family's own AMG settings to opt. It is the one
// per-family setup rule: the service, mgsolve and PaperSetup all build
// through it. Elasticity has three interleaved displacement components per
// node, so it uses the unknown approach (NumFunctions 3), as BoomerAMG does
// for systems. Any other name, an uploaded matrix's included, gets opt
// unchanged.
func ProblemOptions(problem string, opt amg.Options) amg.Options {
	if problem == ProblemElasticity {
		opt.NumFunctions = 3
	}
	return opt
}

// BuildProblem generates a test matrix by family name and mesh parameter.
//
//   - 7pt, 27pt: size is the grid length (paper: 30 → 27,000 rows).
//   - mfem-laplace: size is the ball-mesh resolution (32 ≈ the paper's
//     29,521 rows).
//   - mfem-elasticity: size is the beam cross-section resolution (the beam
//     is 4·size × size × size cells; 10 ≈ the paper's 37,281 rows).
func BuildProblem(name string, size int) (*sparse.CSR, error) {
	if size < 2 {
		return nil, fmt.Errorf("harness: size %d too small", size)
	}
	switch name {
	case Problem7pt:
		return grid.Laplacian7pt(size), nil
	case Problem27pt:
		return grid.Laplacian27pt(size), nil
	case ProblemLaplaceFEM:
		m := fem.BallMesh(size)
		prob, err := fem.AssembleLaplace(m)
		if err != nil {
			return nil, err
		}
		return prob.A, nil
	case ProblemElasticity:
		m := fem.BeamMesh(size)
		prob, err := fem.AssembleElasticity(m, fem.DefaultBeamMaterials())
		if err != nil {
			return nil, err
		}
		return prob.A, nil
	case ProblemConvDiff:
		return grid.ConvectionDiffusion7pt(size, ConvDiffBeta), nil
	default:
		return nil, fmt.Errorf("harness: unknown problem %q (want %v)", name, KnownProblems())
	}
}

// BuildProblemOperator generates the matrix-free form of a structured
// problem: the 7pt and 27pt Laplacians have stencil operators whose fine
// level is never materialized as CSR. ok is false for the FEM families
// (and unknown names), which only exist in assembled form — callers fall
// back to BuildProblem.
func BuildProblemOperator(name string, size int) (a op.Operator, ok bool) {
	if size < 2 {
		return nil, false
	}
	switch name {
	case Problem7pt:
		return op.NewStencil7(size), true
	case Problem27pt:
		return op.NewStencil27(size), true
	default:
		return nil, false
	}
}

// DefaultOmega returns the ω-Jacobi weight the paper uses for each family:
// 0.9 for the stencil Laplacians, 0.5 for the FEM problems.
func DefaultOmega(problem string) float64 {
	switch problem {
	case ProblemLaplaceFEM, ProblemElasticity:
		return 0.5
	default:
		return 0.9
	}
}
