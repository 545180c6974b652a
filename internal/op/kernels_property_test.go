package op

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asyncmg/internal/fem"
	"asyncmg/internal/partition"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// kernelInputs are the operands every kernel case draws from. All entries
// lie in [-1, 1], so every product operand a kernel forms is bounded by 1 —
// the float32 error bound below relies on it.
type kernelInputs struct {
	x, b []float64 // len cols, len rows
}

func newKernelInputs(rng *rand.Rand, rows, cols int) kernelInputs {
	return kernelInputs{x: randVec(rng, cols), b: randVec(rng, rows)}
}

// kernelCase is one row kernel of the one kernel set. Every form returns
// one value per matrix row. serial runs the
// Range method over two uneven pieces; sharded runs the full-vector form
// the engine calls (nil when the kernel has none); composed, when set, is
// the plain sequence a one-pass kernel must reproduce bitwise.
type kernelCase struct {
	name                      string
	square                    bool // needs rows == cols
	serial, sharded, composed func() []float64
}

// kernelCases builds the table for one stored instantiation of m: every
// Range kernel of sparse.Matrix, op.CSR and op.CSRInterp (the interpolant
// with P = Pᵀ = m, so ApplyTRange runs m's rows too).
func kernelCases[V sparse.Value, I sparse.Index](m *sparse.Matrix[V, I], in kernelInputs) []kernelCase {
	rows := m.Rows
	a := &CSR[V, I]{M: m}
	itp := &CSRInterp[V, I]{P: m, PT: m}
	split := func(f func(lo, hi int)) { f(0, rows/3); f(rows/3, rows) }
	out := func() []float64 { return make([]float64, rows) }
	from := func(v []float64) []float64 { return append([]float64(nil), v...) }
	apply := func(rng func(y, x []float64, lo, hi int), full func(y, x []float64), add bool) kernelCase {
		y0 := out
		if add {
			y0 = func() []float64 { return from(in.b) }
		}
		c := kernelCase{serial: func() []float64 { y := y0(); split(func(lo, hi int) { rng(y, in.x, lo, hi) }); return y }}
		if full != nil {
			c.sharded = func() []float64 { y := y0(); full(y, in.x); return y }
		}
		return c
	}
	residual := func(rng func(r, b, x []float64, lo, hi int)) kernelCase {
		return kernelCase{
			serial:  func() []float64 { r := out(); split(func(lo, hi int) { rng(r, in.b, in.x, lo, hi) }); return r },
			sharded: func() []float64 { r := out(); a.Residual(r, in.b, in.x); return r }}
	}
	named := func(name string, c kernelCase) kernelCase { c.name = name; return c }
	return []kernelCase{
		named("apply", apply(m.ApplyRange, a.Apply, false)),
		named("apply-add", apply(m.ApplyAddRange, itp.ApplyAdd, true)),
		named("residual", residual(m.ResidualRange)),
		named("op-apply", apply(a.ApplyRange, nil, false)),
		named("op-residual", residual(a.ResidualRange)),
		named("interp-apply", apply(itp.ApplyRange, itp.Apply, false)),
		named("interp-apply-add", apply(itp.ApplyAddRange, nil, true)),
		named("interp-apply-t", apply(itp.ApplyTRange, itp.ApplyT, false)),
		{name: "atomic-residual", square: true,
			serial: func() []float64 {
				x, dst := vec.NewAtomic(rows), vec.NewAtomic(rows)
				for i, v := range in.x {
					x.Store(i, v)
				}
				split(func(lo, hi int) { a.ResidualAtomicRange(dst, in.b, x, lo, hi) })
				r := out()
				for i := range r {
					r[i] = dst.Load(i)
				}
				return r
			},
			composed: func() []float64 { r := out(); m.Residual(r, in.b, in.x); return r }},
		{name: "diag", square: true, serial: m.Diag, sharded: a.Diag},
		{name: "row-l1", serial: m.RowL1Norms, sharded: a.RowL1Norms},
	}
}

func randomCSR(rng *rand.Rand, rows, cols, nnzPerRow int) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, rows*(nnzPerRow+1))
	for i := 0; i < rows; i++ {
		if i < cols {
			coo.Add(i, i, 4+rng.Float64())
		}
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// TestCSRKernelTable is the contract of the one CSR kernel set, checked for
// every kernel on the three stored instantiations, float64/int,
// float64/uint32 and float32/uint32:
//
//   - the full-vector form equals the serial Range form bitwise, sharded at
//     1, 2 and 8 workers (threshold 1) and on its below-threshold serial
//     fallback, and a one-pass kernel equals the plain sequence it
//     replaces;
//   - the float64/uint32 instantiation equals the float64/int one bitwise
//     (the index width moves no arithmetic);
//   - conversion to float32/uint32 rounds each entry once, and the float32
//     instantiation equals the float64/int one run on those rounded
//     entries bitwise (float64 accumulation: only the stored entries
//     differ);
//   - on matrices whose entries are exact in float32 (the stencils, the
//     trilinear interpolant) that makes float32 and float64 storage agree
//     bitwise; on the FEM Laplacian and random matrices they agree within
//     one float32 rounding per entry, 2⁻²⁴·Σ_j|a_ij| per row.
func TestCSRKernelTable(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ball, err := fem.AssembleLaplace(fem.BallMesh(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name    string
		m       *sparse.CSR
		exact32 bool
	}{
		{"7pt", NewStencil7(7).CSR(), true},
		{"27pt", NewStencil27(6).CSR(), true},
		{"geom-P", GeomInterpCSR(9), true},
		{"fem-laplace", ball.A, false},
		{"random", randomCSR(rng, 313, 313, 8), false},
		{"random-tall", randomCSR(rng, 301, 47, 3), false},
	} {
		m64 := fx.m
		mu := sparse.Convert[float64, uint32](m64)
		m32 := sparse.Convert[float32, uint32](m64)
		widened := sparse.Convert[float64, int](m32)
		exact := true
		for q, v := range m64.Vals {
			if mu.Vals[q] != v || int(mu.ColIdx[q]) != m64.ColIdx[q] || m32.Vals[q] != float32(v) || m32.ColIdx[q] != mu.ColIdx[q] {
				t.Fatalf("%s: entry %d converted to (%d, %v), want (%d, %v)", fx.name, q, m32.ColIdx[q], m32.Vals[q], m64.ColIdx[q], float32(v))
			}
			exact = exact && widened.Vals[q] == v
		}
		if exact != fx.exact32 {
			t.Fatalf("%s: entries exact in float32 = %v, want %v", fx.name, exact, fx.exact32)
		}
		if got, want := m32.Bytes(), 4*len(m64.RowPtr)+8*m64.NNZ(); got != want {
			t.Fatalf("%s: float32 store is %d bytes, want %d", fx.name, got, want)
		}
		if got, want := mu.Bytes(), 4*len(m64.RowPtr)+12*m64.NNZ(); got != want {
			t.Fatalf("%s: float64/uint32 store is %d bytes, want %d", fx.name, got, want)
		}
		if got, want := m64.Bytes(), 8*(len(m64.RowPtr)+2*m64.NNZ()); got != want {
			t.Fatalf("%s: float64 store is %d bytes, want %d", fx.name, got, want)
		}

		in := newKernelInputs(rng, m64.Rows, m64.Cols)
		c64, cu, c32, cw := kernelCases(m64, in), kernelCases(mu, in), kernelCases(m32, in), kernelCases(widened, in)
		rowL1 := m64.RowL1Norms()
		serial64 := make([][]float64, len(c64))
		serial32 := make([][]float64, len(c32))
		for ci, kc := range c64 {
			if kc.square && m64.Rows != m64.Cols {
				continue
			}
			name := fx.name + "/" + kc.name
			serial64[ci], serial32[ci] = kc.serial(), c32[ci].serial()
			if kc.composed != nil {
				assertBitwise(t, name+"/f64 vs composed", serial64[ci], kc.composed())
				assertBitwise(t, name+"/u32 vs composed", cu[ci].serial(), cu[ci].composed())
				assertBitwise(t, name+"/f32 vs composed", serial32[ci], c32[ci].composed())
			}
			assertBitwise(t, name+"/u32 vs int", cu[ci].serial(), serial64[ci])
			assertBitwise(t, name+"/f32 vs f64 on rounded entries", serial32[ci], cw[ci].serial())
			for i, got := range serial32[ci] {
				if tol := 0x1p-24 * rowL1[i] * (1 + 1e-6); math.Abs(got-serial64[ci][i]) > tol {
					t.Fatalf("%s: f32 vs f64 differ by %g at %d, bound %g", name, math.Abs(got-serial64[ci][i]), i, tol)
				}
			}
		}
		// workers = 0 leaves the default pool and threshold: the
		// full-vector forms take their serial fallback.
		for _, workers := range []int{0, 1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", fx.name, workers), func(t *testing.T) {
				if workers > 0 {
					withWorkers(t, workers)
				}
				for ci, kc := range c64 {
					if kc.sharded == nil || serial64[ci] == nil {
						continue
					}
					assertBitwise(t, kc.name+"/f64 sharded", kc.sharded(), serial64[ci])
					assertBitwise(t, kc.name+"/u32 sharded", cu[ci].sharded(), serial64[ci])
					assertBitwise(t, kc.name+"/f32 sharded", c32[ci].sharded(), serial32[ci])
				}
			})
		}
	}
}

// TestCSRKernelOperandValidation pins AsCSR on every instantiation: it
// exposes only the zero-copy float64/uint32 view a hierarchy level holds.
func TestCSRKernelOperandValidation(t *testing.T) {
	m := NewStencil7(4).CSR()
	mu := sparse.Convert[float64, uint32](m)
	if AsCSR(FromCSR(mu)) != mu {
		t.Fatal("AsCSR should return the wrapped matrix")
	}
	if AsCSR(FromCSR(m)) != nil || AsCSR(NewCSR32(m)) != nil || AsCSR(NewStencil7(4)) != nil {
		t.Fatal("AsCSR on a float64/int store, a float32 store or a stencil should be nil")
	}
}

// The block smoothers' row walks as package smoother ran them on a float64
// CSR before they became Operator kernels: the oracles of
// TestBlockSmootherKernelTable.

func lowerSolveOracle(a *sparse.CSR, aug, x, b []float64, blk partition.Range) {
	for i := blk.Lo; i < blk.Hi; i++ {
		sum, diag := b[i], 0.0
		if aug != nil {
			diag = aug[i]
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j < blk.Lo {
				continue
			}
			if j > i {
				break
			}
			if j == i {
				diag += a.Vals[p]
			} else {
				sum -= a.Vals[p] * x[j]
			}
		}
		if diag != 0 {
			x[i] = sum / diag
		}
	}
}

func offBlockL1Oracle(a *sparse.CSR, blocks []partition.Range) []float64 {
	l1Off := make([]float64, a.Rows)
	for _, blk := range blocks {
		for i := blk.Lo; i < blk.Hi; i++ {
			off := 0.0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.ColIdx[p]
				if j < blk.Lo || j >= blk.Hi {
					v := a.Vals[p]
					if v < 0 {
						v = -v
					}
					off += v
				}
			}
			l1Off[i] = off
		}
	}
	return l1Off
}

func sweepBlockAtomicOracle(a *sparse.CSR, x *vec.Atomic, b []float64, r partition.Range) {
	for i := r.Lo; i < r.Hi; i++ {
		sum := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i {
				diag += a.Vals[p]
				continue
			}
			sum -= a.Vals[p] * x.Load(j)
		}
		if diag != 0 {
			x.Store(i, sum/diag)
		}
	}
}

// blockWalks runs the three block-smoother kernels of a over blocks in
// order, from the iterate x0: the off-block ℓ1 norms, the block forward
// substitution without and with them as aug, and the in-place atomic sweep.
// oracle, when set, runs the pre-Operator bodies on that float64 matrix
// instead.
func blockWalks(a Operator, oracle *sparse.CSR, blocks []partition.Range, x0, b []float64) map[string][]float64 {
	l1 := make([]float64, len(b))
	plain := append([]float64(nil), x0...)
	aug := append([]float64(nil), x0...)
	atom := vec.NewAtomic(len(b))
	atom.StoreRange(x0, 0, len(x0))
	if oracle != nil {
		l1 = offBlockL1Oracle(oracle, blocks)
	} else {
		for _, blk := range blocks {
			a.OffBlockL1Range(l1, blk.Lo, blk.Hi)
		}
	}
	for _, blk := range blocks {
		if oracle != nil {
			lowerSolveOracle(oracle, nil, plain, b, blk)
			lowerSolveOracle(oracle, l1, aug, b, blk)
			sweepBlockAtomicOracle(oracle, atom, b, blk)
			continue
		}
		a.LowerSolveRange(plain, b, nil, blk.Lo, blk.Hi)
		a.LowerSolveRange(aug, b, l1, blk.Lo, blk.Hi)
		a.GaussSeidelAtomicRange(atom, b, blk.Lo, blk.Hi)
	}
	gs := make([]float64, len(b))
	atom.Snapshot(gs)
	return map[string][]float64{"off-block-l1": l1, "lower-solve": plain, "lower-solve-aug": aug, "atomic-gs": gs}
}

// TestBlockSmootherKernelTable pins the block smoothers' row walks
// (LowerSolveRange with and without aug, OffBlockL1Range,
// GaussSeidelAtomicRange) on every operator type to the bodies package
// smoother ran on a float64 CSR: the 7-point and 27-point stencils at
// n ∈ {1, 2, 3, 5}, a Coarsen'ed 27-point stencil, each beside its
// materialized CSR[float64, int] and its CSR[float64, uint32] copy, and
// each again rounded to float32 (RoundFloat32 beside NewCSR32), plus a
// random CSR in every instantiation.
// The block splits cut grid lines mid-line, include empty blocks when
// there are more blocks than rows, and are swept in an order that is not
// the row order. float64 operators must equal the oracle bitwise on the
// materialized matrix, float32 ones on its rounded entries.
func TestBlockSmootherKernelTable(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	type fixture struct {
		name string
		st   *Stencil // nil for the random CSR
		m    *sparse.CSR
	}
	var fixtures []fixture
	for _, n := range []int{1, 2, 3, 5} {
		for _, st := range []struct {
			name string
			s    *Stencil
		}{{"7pt", NewStencil7(n)}, {"27pt", NewStencil27(n)}} {
			fixtures = append(fixtures, fixture{fmt.Sprintf("%s/n=%d", st.name, n), st.s, st.s.CSR()})
		}
	}
	_, coarse, err := randomStencil(5).Coarsen()
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"random27-coarsened/n=5", coarse, coarse.CSR()},
		fixture{"random-csr", nil, randomCSR(rng, 157, 157, 6)})

	for _, fx := range fixtures {
		rows := fx.m.Rows
		m32 := sparse.Convert[float32, uint32](fx.m)
		rounded := sparse.Convert[float64, int](m32)
		type operand struct {
			name   string
			a      Operator
			oracle *sparse.CSR
		}
		ops := []operand{{"csr-f64", FromCSR(fx.m), fx.m}, {"csr-u32", FromCSR(sparse.Convert[float64, uint32](fx.m)), fx.m},
			{"csr-f32", &CSR[float32, uint32]{M: m32}, rounded}}
		if fx.st != nil {
			ops = append(ops, operand{"stencil-f64", fx.st, fx.m}, operand{"stencil-f32", fx.st.RoundFloat32(), rounded})
		}
		x0, b := randVec(rng, rows), randVec(rng, rows)
		splits := map[string][]partition.Range{
			"one-block": partition.SplitRows(rows, 1),
			"3-blocks":  partition.SplitRows(rows, 3),
			"4-blocks":  partition.SplitRows(rows, 4),
			"7-blocks":  partition.SplitRows(rows, 7),
			"uneven":    {{Lo: 0, Hi: rows / 5}, {Lo: rows / 5, Hi: rows / 2}, {Lo: rows / 2, Hi: rows}},
		}
		// Swept last block first: a block's atomic sweep then reads rows
		// of the blocks after it already updated.
		rev := partition.SplitRows(rows, 3)
		rev[0], rev[2] = rev[2], rev[0]
		splits["3-blocks-reversed"] = rev
		for split, blocks := range splits {
			for _, o := range ops {
				name := fx.name + "/" + split + "/" + o.name
				want := blockWalks(nil, o.oracle, blocks, x0, b)
				for kernel, got := range blockWalks(o.a, nil, blocks, x0, b) {
					assertBitwise(t, name+"/"+kernel, got, want[kernel])
				}
			}
		}
	}
}
