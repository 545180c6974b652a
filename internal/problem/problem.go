// Package problem is the registry of the generated test families, the
// paper's four test sets (§V) and a non-symmetric convection-diffusion
// extension: their names, generators, setup rule and ω-Jacobi weight, one
// definition for the harness, the solve builder, the service and mgsolve.
package problem

import (
	"fmt"

	"asyncmg/internal/amg"
	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// Family names accepted by Build.
const (
	Laplace7pt  = "7pt"
	Laplace27pt = "27pt"
	LaplaceFEM  = "mfem-laplace"
	Elasticity  = "mfem-elasticity"
	// ConvDiff is the non-symmetric upwind convection-diffusion operator
	// -Δu + β·∇u (β = ConvDiffBeta): the FGMRES target problem. It is not
	// one of the paper's four test sets, so Paper (which drives the
	// paper-protocol sweeps and their golden baselines) does not include
	// it; Known does.
	ConvDiff = "conv-diff"
)

// ConvDiffBeta is the upwind convection strength of ConvDiff, chosen
// strongly convection-dominated so that symmetric-assumption multigrid
// cycling degrades while preconditioned FGMRES converges.
const ConvDiffBeta = 4.0

// Paper lists the four test sets of the paper in its order.
func Paper() []string {
	return []string{Laplace7pt, Laplace27pt, LaplaceFEM, Elasticity}
}

// Known lists every family Build accepts: the paper's four plus the
// non-symmetric convection-diffusion extension.
func Known() []string {
	return append(Paper(), ConvDiff)
}

// Options applies a family's own AMG settings to opt. It is the one
// per-family setup rule. Elasticity has three interleaved displacement
// components per node, so it uses the unknown approach (NumFunctions 3),
// as BoomerAMG does for systems. Any other name, an uploaded matrix's
// included, gets opt unchanged.
func Options(name string, opt amg.Options) amg.Options {
	if name == Elasticity {
		opt.NumFunctions = 3
	}
	return opt
}

// Build generates a test matrix by family name and mesh parameter.
//
//   - 7pt, 27pt: size is the grid length (paper: 30 → 27,000 rows).
//   - mfem-laplace: size is the ball-mesh resolution (32 ≈ the paper's
//     29,521 rows).
//   - mfem-elasticity: size is the beam cross-section resolution (the beam
//     is 4·size × size × size cells; 10 ≈ the paper's 37,281 rows).
func Build(name string, size int) (*sparse.CSR, error) {
	if size < 2 {
		return nil, fmt.Errorf("problem: size %d too small", size)
	}
	switch name {
	case Laplace7pt:
		return grid.Laplacian7pt(size), nil
	case Laplace27pt:
		return grid.Laplacian27pt(size), nil
	case LaplaceFEM:
		m := fem.BallMesh(size)
		prob, err := fem.AssembleLaplace(m)
		if err != nil {
			return nil, err
		}
		return prob.A, nil
	case Elasticity:
		m := fem.BeamMesh(size)
		prob, err := fem.AssembleElasticity(m, fem.DefaultBeamMaterials())
		if err != nil {
			return nil, err
		}
		return prob.A, nil
	case ConvDiff:
		return grid.ConvectionDiffusion7pt(size, ConvDiffBeta), nil
	default:
		return nil, fmt.Errorf("problem: unknown family %q (want %v)", name, Known())
	}
}

// Operator generates the matrix-free form of a structured family: the 7pt
// and 27pt Laplacians have stencil operators whose fine level is never
// materialized as CSR. ok is false for the FEM families (and unknown
// names), which only exist in assembled form, and below size 3, the
// smallest grid the stencil coarsens geometrically — callers fall back to
// Build.
func Operator(name string, size int) (a op.Operator, ok bool) {
	if size < 3 {
		return nil, false
	}
	switch name {
	case Laplace7pt:
		return op.NewStencil7(size), true
	case Laplace27pt:
		return op.NewStencil27(size), true
	default:
		return nil, false
	}
}

// DefaultOmega returns the ω-Jacobi weight the paper uses for each family:
// 0.9 for the stencil Laplacians, 0.5 for the FEM problems.
func DefaultOmega(name string) float64 {
	switch name {
	case LaplaceFEM, Elasticity:
		return 0.5
	default:
		return 0.9
	}
}
