package fem

import (
	"math"
	"testing"

	"asyncmg/internal/krylov"
	"asyncmg/internal/op"
)

// TestManufacturedSolutionConvergence solves -Δu = f on the unit cube with
// the manufactured solution u = sin(πx)·sin(πy)·sin(πz) (so f = 3π²u and
// u = 0 on the boundary) and checks that the nodal max error shrinks at
// the expected O(h²) rate under mesh refinement. This validates the whole
// FEM pipeline — geometry, stiffness assembly, boundary elimination, load
// integration — against an exact PDE solution.
func TestManufacturedSolutionConvergence(t *testing.T) {
	exact := func(p Vec3) float64 {
		return math.Sin(math.Pi*p.X) * math.Sin(math.Pi*p.Y) * math.Sin(math.Pi*p.Z)
	}
	source := func(p Vec3) float64 { return 3 * math.Pi * math.Pi * exact(p) }

	var errs []float64
	for _, n := range []int{4, 8} {
		mesh := BoxMesh(n, n, n, 1, 1, 1)
		// Mark the cube surface as Dirichlet.
		px := n + 1
		id := func(i, j, k int) int { return (i*px+j)*px + k }
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				for k := 0; k <= n; k++ {
					if i == 0 || i == n || j == 0 || j == n || k == 0 || k == n {
						mesh.Boundary[id(i, j, k)] = true
					}
				}
			}
		}
		prob, err := AssembleLaplace(mesh)
		if err != nil {
			t.Fatal(err)
		}
		// Lumped load vector: b_i = f(x_i) · (volume share of node i). For
		// P1 elements the lumped mass of node i is Σ_T∋i |T|/4.
		lump := make([]float64, len(mesh.Nodes))
		for _, tet := range mesh.Tets {
			vol, _ := tetGeometry(mesh.Nodes[tet[0]], mesh.Nodes[tet[1]], mesh.Nodes[tet[2]], mesh.Nodes[tet[3]])
			av := math.Abs(vol) / 4
			for _, nd := range tet {
				lump[nd] += av
			}
		}
		b := make([]float64, prob.A.Rows)
		for r, f := range prob.FreeDOF {
			b[r] = source(mesh.Nodes[f]) * lump[f]
		}
		res, err := krylov.PCG(op.FromCSR(prob.A), b, krylov.Options{Tol: 1e-12, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: CG did not converge", n)
		}
		// Nodal max error against the exact solution.
		maxErr := 0.0
		for r, f := range prob.FreeDOF {
			if e := math.Abs(res.X[r] - exact(mesh.Nodes[f])); e > maxErr {
				maxErr = e
			}
		}
		errs = append(errs, maxErr)
		t.Logf("n=%d: nodal max error %.4e", n, maxErr)
	}
	// Halving h should cut the error by ~4 (O(h²)); accept anything
	// beyond 2.5× to allow pre-asymptotic effects on coarse meshes.
	if ratio := errs[0] / errs[1]; ratio < 2.5 {
		t.Errorf("error ratio %v under refinement, want >= 2.5 (O(h^2))", ratio)
	}
}

// TestElasticityPatchTest: any linear displacement field has constant
// strain, hence zero stress divergence, so the assembled (Neumann)
// stiffness matrix must annihilate it at interior nodes — the classical
// constant-strain patch test that every conforming element must pass.
func TestElasticityPatchTest(t *testing.T) {
	mesh := BoxMesh(3, 3, 3, 1, 1, 1) // no Dirichlet nodes
	prob, err := AssembleElasticity(mesh, []Material{{E: 7, Nu: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	k := prob.A
	// Linear field u(x) = B x + c with an arbitrary matrix B.
	B := [3][3]float64{{0.3, -0.1, 0.2}, {0.05, 0.4, -0.25}, {-0.15, 0.1, 0.6}}
	c := [3]float64{1, -2, 0.5}
	u := make([]float64, k.Rows)
	for nd, p := range mesh.Nodes {
		x := [3]float64{p.X, p.Y, p.Z}
		for i := 0; i < 3; i++ {
			v := c[i]
			for j := 0; j < 3; j++ {
				v += B[i][j] * x[j]
			}
			u[3*nd+i] = v
		}
	}
	y := make([]float64, k.Rows)
	k.MatVec(y, u)
	// Interior nodes: all lattice indices strictly inside.
	px := 4
	id := func(i, j, kk int) int { return (i*px+j)*px + kk }
	for i := 1; i < 3; i++ {
		for j := 1; j < 3; j++ {
			for kk := 1; kk < 3; kk++ {
				nd := id(i, j, kk)
				for comp := 0; comp < 3; comp++ {
					if math.Abs(y[3*nd+comp]) > 1e-10 {
						t.Fatalf("patch test failed at node (%d,%d,%d) comp %d: %g",
							i, j, kk, comp, y[3*nd+comp])
					}
				}
			}
		}
	}
}
