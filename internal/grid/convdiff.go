package grid

import (
	"fmt"

	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

// ConvectionDiffusion7pt returns the upwind-discretized convection-diffusion
// operator -Δu + β·∇u on an n×n×n grid of interior points with homogeneous
// Dirichlet boundaries: the 7-point Laplacian plus first-order upwind
// differences of strength beta along the -x and -y flow directions. The
// result is a non-symmetric M-matrix (diagonal 6+2β, upwind neighbours
// -1-β, remaining neighbours -1) — the FGMRES target problem, since plain
// multigrid cycling degrades as β grows.
func ConvectionDiffusion7pt(n int, beta float64) *sparse.CSR {
	if beta < 0 {
		panic(fmt.Sprintf("grid: ConvectionDiffusion7pt needs beta >= 0, got %v", beta))
	}
	var c [27]float64 // the box index of (di, dj, dk) is 9(di+1)+3(dj+1)+dk+1
	c[4], c[10], c[12], c[13], c[14], c[16], c[22] = -1-beta, -1-beta, -1, 6+2*beta, -1, -1, -1
	return op.NewBoxStencil(n, c).CSR()
}
