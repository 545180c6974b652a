package fem

import (
	"math"
	"testing"
	"testing/quick"

	"asyncmg/internal/sparse/sparsetest"
	"asyncmg/internal/vec"
)

func TestBoxMeshCounts(t *testing.T) {
	m := BoxMesh(2, 3, 4, 1, 1, 1)
	if got, want := len(m.Nodes), 3*4*5; got != want {
		t.Errorf("nodes = %d, want %d", got, want)
	}
	if got, want := len(m.Tets), 6*2*3*4; got != want {
		t.Errorf("tets = %d, want %d", got, want)
	}
	if len(m.Material) != len(m.Tets) {
		t.Errorf("material slice length mismatch")
	}
}

func TestBoxMeshVolumeSums(t *testing.T) {
	// The six Kuhn tets must tile each cube exactly: total volume equals
	// the box volume.
	m := BoxMesh(3, 2, 2, 3, 2, 1)
	total := 0.0
	for _, tet := range m.Tets {
		vol, _ := tetGeometry(m.Nodes[tet[0]], m.Nodes[tet[1]], m.Nodes[tet[2]], m.Nodes[tet[3]])
		if vol == 0 {
			t.Fatal("degenerate tet in box mesh")
		}
		total += math.Abs(vol)
	}
	if math.Abs(total-6.0) > 1e-12 {
		t.Errorf("mesh volume = %v, want 6", total)
	}
}

func TestTetGeometryGradients(t *testing.T) {
	// Reference tet: gradients of hat functions are known analytically.
	p0 := Vec3{0, 0, 0}
	p1 := Vec3{1, 0, 0}
	p2 := Vec3{0, 1, 0}
	p3 := Vec3{0, 0, 1}
	vol, g := tetGeometry(p0, p1, p2, p3)
	if math.Abs(vol-1.0/6.0) > 1e-15 {
		t.Errorf("vol = %v, want 1/6", vol)
	}
	want := [4]Vec3{{-1, -1, -1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for a := 0; a < 4; a++ {
		if math.Abs(g[a].X-want[a].X)+math.Abs(g[a].Y-want[a].Y)+math.Abs(g[a].Z-want[a].Z) > 1e-14 {
			t.Errorf("grad[%d] = %v, want %v", a, g[a], want[a])
		}
	}
}

func TestTetGeometryPartitionOfUnity(t *testing.T) {
	// Gradients of the four hat functions always sum to zero.
	f := func(seed int64) bool {
		rng := newRng(seed)
		pts := [4]Vec3{}
		for i := range pts {
			pts[i] = Vec3{rng(), rng(), rng()}
		}
		vol, g := tetGeometry(pts[0], pts[1], pts[2], pts[3])
		if vol == 0 {
			return true // degenerate random tet: nothing to check
		}
		sx := g[0].X + g[1].X + g[2].X + g[3].X
		sy := g[0].Y + g[1].Y + g[2].Y + g[3].Y
		sz := g[0].Z + g[1].Z + g[2].Z + g[3].Z
		return math.Abs(sx)+math.Abs(sy)+math.Abs(sz) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// newRng returns a cheap deterministic float64 generator in [-1, 1].
func newRng(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return 2*float64(s%1000000)/1000000 - 1
	}
}

func TestBallMeshBoundaryOnSphere(t *testing.T) {
	m := BallMesh(4)
	nb := 0
	for i, isB := range m.Boundary {
		if !isB {
			continue
		}
		nb++
		p := m.Nodes[i]
		r := math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
		if math.Abs(r-1) > 1e-12 {
			t.Fatalf("boundary node %d has radius %v, want 1", i, r)
		}
	}
	if nb == 0 {
		t.Fatal("ball mesh has no boundary nodes")
	}
	// Interior nodes stay strictly inside.
	for i, isB := range m.Boundary {
		if isB {
			continue
		}
		p := m.Nodes[i]
		r := math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
		if r >= 1-1e-12 {
			t.Fatalf("interior node %d has radius %v", i, r)
		}
	}
}

func TestBallMeshNonDegenerate(t *testing.T) {
	m := BallMesh(6)
	for ti, tet := range m.Tets {
		vol, _ := tetGeometry(m.Nodes[tet[0]], m.Nodes[tet[1]], m.Nodes[tet[2]], m.Nodes[tet[3]])
		if math.Abs(vol) < 1e-14 {
			t.Fatalf("tet %d is (near-)degenerate after ball mapping: vol=%g", ti, vol)
		}
	}
}

func TestAssembleLaplaceSPD(t *testing.T) {
	m := BallMesh(4)
	prob, err := AssembleLaplace(m)
	if err != nil {
		t.Fatal(err)
	}
	a := prob.A
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sparsetest.IsSymmetric(a, 1e-12) {
		t.Error("Laplace stiffness not symmetric")
	}
	// Positive definiteness spot check: xᵀAx > 0 for random x.
	for seed := int64(0); seed < 5; seed++ {
		rng := newRng(seed + 1)
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = rng()
		}
		ax := make([]float64, a.Rows)
		a.MatVec(ax, x)
		if q := vec.Dot(x, ax); q <= 0 {
			t.Errorf("xᵀAx = %v <= 0", q)
		}
	}
}

func TestLaplaceLinearExactness(t *testing.T) {
	// P1 FEM reproduces linear functions exactly: with u = x+2y+3z on the
	// boundary and zero source, the interior stiffness equations are
	// satisfied by the nodal interpolant. Equivalently, for the full
	// (non-reduced) operator, K·u_lin = 0 at interior rows. We verify via
	// the reduced system: A x_free = -K_fb u_bound, built here directly by
	// assembling on a mesh with no boundary elimination.
	mesh := BoxMesh(3, 3, 3, 1, 1, 1)
	// No Dirichlet nodes: assemble the full Neumann stiffness matrix.
	prob, err := AssembleLaplace(mesh)
	if err != nil {
		t.Fatal(err)
	}
	k := prob.A
	ulin := make([]float64, len(mesh.Nodes))
	for i, p := range mesh.Nodes {
		ulin[i] = p.X + 2*p.Y + 3*p.Z
	}
	y := make([]float64, k.Rows)
	k.MatVec(y, ulin)
	// Interior rows of the Neumann stiffness annihilate linears; boundary
	// rows carry the natural boundary flux. Check interior rows only.
	px := 4
	id := func(i, j, kk int) int { return (i*px+j)*px + kk }
	for i := 1; i < 3; i++ {
		for j := 1; j < 3; j++ {
			for kk := 1; kk < 3; kk++ {
				if math.Abs(y[id(i, j, kk)]) > 1e-10 {
					t.Errorf("interior row (%d,%d,%d): K·linear = %g, want 0", i, j, kk, y[id(i, j, kk)])
				}
			}
		}
	}
}

func TestBeamMeshBoundaryAndMaterials(t *testing.T) {
	m := BeamMesh(2)
	// Clamped face: all nodes with X == 0.
	for i, p := range m.Nodes {
		if p.X == 0 && !m.Boundary[i] {
			t.Fatalf("node %d on clamped face not marked boundary", i)
		}
		if p.X > 0 && m.Boundary[i] {
			t.Fatalf("node %d off the clamped face marked boundary", i)
		}
	}
	// All three materials present.
	seen := map[int]bool{}
	for _, mat := range m.Material {
		seen[mat] = true
	}
	for w := 0; w < 3; w++ {
		if !seen[w] {
			t.Errorf("material %d missing from beam", w)
		}
	}
}

func TestAssembleElasticitySPD(t *testing.T) {
	m := BeamMesh(2)
	prob, err := AssembleElasticity(m, DefaultBeamMaterials())
	if err != nil {
		t.Fatal(err)
	}
	a := prob.A
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3*(len(m.Nodes)-countBound(m)) {
		t.Errorf("reduced size %d inconsistent", a.Rows)
	}
	if !sparsetest.IsSymmetric(a, 1e-10) {
		t.Error("elasticity stiffness not symmetric")
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := newRng(seed + 7)
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = rng()
		}
		ax := make([]float64, a.Rows)
		a.MatVec(ax, x)
		if q := vec.Dot(x, ax); q <= 0 {
			t.Errorf("xᵀAx = %v <= 0 (clamped elasticity must be SPD)", q)
		}
	}
}

func TestElasticityRigidTranslationNullspace(t *testing.T) {
	// Without Dirichlet conditions, rigid translations are in the
	// nullspace: K·(c,c,c per node) = 0.
	m := BoxMesh(2, 2, 2, 1, 1, 1) // no boundary marked
	prob, err := AssembleElasticity(m, []Material{{E: 5, Nu: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	k := prob.A
	x := make([]float64, k.Rows)
	for i := 0; i < k.Rows; i += 3 {
		x[i] = 1 // unit translation in x
	}
	y := make([]float64, k.Rows)
	k.MatVec(y, x)
	for i, v := range y {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("(K·translation)[%d] = %g, want 0", i, v)
		}
	}
}

func TestLameConversion(t *testing.T) {
	lambda, mu := Material{E: 1, Nu: 0.25}.Lame()
	// λ = Eν/((1+ν)(1-2ν)) = 0.25/(1.25*0.5) = 0.4; μ = 1/2.5 = 0.4
	if math.Abs(lambda-0.4) > 1e-15 || math.Abs(mu-0.4) > 1e-15 {
		t.Errorf("Lame = (%v, %v), want (0.4, 0.4)", lambda, mu)
	}
}

func TestExpandScattersSolution(t *testing.T) {
	m := BallMesh(3)
	prob, err := AssembleLaplace(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, prob.A.Rows)
	for i := range x {
		x[i] = float64(i + 1)
	}
	full := prob.Expand(x)
	if len(full) != len(m.Nodes) {
		t.Fatalf("Expand length %d, want %d", len(full), len(m.Nodes))
	}
	for i, isB := range m.Boundary {
		if isB && full[i] != 0 {
			t.Fatalf("boundary node %d nonzero after Expand", i)
		}
	}
	for r, f := range prob.FreeDOF {
		if full[f] != x[r] {
			t.Fatalf("free DOF %d not scattered", r)
		}
	}
}

func TestElasticityBadMaterialIndex(t *testing.T) {
	m := BeamMesh(1)
	if _, err := AssembleElasticity(m, []Material{{E: 1, Nu: 0.3}}); err == nil {
		t.Fatal("expected error: beam has 3 materials but only 1 supplied")
	}
}

func countBound(m *Mesh) int {
	c := 0
	for _, b := range m.Boundary {
		if b {
			c++
		}
	}
	return c
}

func TestProblemSizesNearPaper(t *testing.T) {
	// Sanity that the generators can reach the paper's problem sizes.
	// MFEM Laplace: 29,521 rows — BallMesh(32) gives 31³ = 29,791 interior
	// nodes, within 1% of the paper's count.
	if testing.Short() {
		t.Skip("size check is slow")
	}
	m := BallMesh(32)
	prob, err := AssembleLaplace(m)
	if err != nil {
		t.Fatal(err)
	}
	if prob.A.Rows != 31*31*31 {
		t.Errorf("rows = %d, want %d", prob.A.Rows, 31*31*31)
	}
}
