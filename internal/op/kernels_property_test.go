package op

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asyncmg/internal/fem"
	"asyncmg/internal/grid"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// kernelInputs are the operands every kernel case draws from. All entries
// lie in [-1, 1] (invDiag and scale in (0, 1]), so every product operand a
// kernel forms is bounded by 1 — the float32 error bound below relies on it.
type kernelInputs struct {
	x, b          []float64 // len cols, len rows
	invDiag       []float64 // len rows (square matrices: rows == cols)
	xBlock        []float64 // len cols*blockK
	bBlock, yInit []float64 // len rows*blockK
}

const blockK = 3

func newKernelInputs(rng *rand.Rand, rows, cols int) kernelInputs {
	in := kernelInputs{
		x: randVec(rng, cols), b: randVec(rng, rows),
		invDiag: make([]float64, rows),
		xBlock:  randVec(rng, cols*blockK),
		bBlock:  randVec(rng, rows*blockK), yInit: randVec(rng, rows*blockK),
	}
	for i := range in.invDiag {
		in.invDiag[i] = 1 - 0.9*rng.Float64()
	}
	return in
}

// kernelCase is one row kernel of the one kernel set. Every form returns
// its output row-major with `width` values per matrix row. serial runs the
// Range method over two uneven pieces; sharded runs the full-vector form
// the engine calls (nil when the kernel has none); composed, when set, is
// the unfused sequence a fused kernel must reproduce bitwise.
type kernelCase struct {
	name                      string
	width                     int
	square                    bool // needs rows == cols
	serial, sharded, composed func() []float64
}

// kernelCases builds the table for one stored instantiation of m.
func kernelCases[V sparse.Value, I sparse.Index](m *sparse.Matrix[V, I], in kernelInputs) []kernelCase {
	rows := m.Rows
	a := &CSR[V, I]{M: m}
	itp := &CSRInterp[V, I]{P: m, PT: m}
	split := func(f func(lo, hi int)) { f(0, rows/3); f(rows/3, rows) }
	out := func(w int) []float64 { return make([]float64, rows*w) }
	from := func(v []float64) []float64 { return append([]float64(nil), v...) }
	zip := func(e, t []float64) []float64 {
		o := out(2)
		for i := range e {
			o[2*i], o[2*i+1] = e[i], t[i]
		}
		return o
	}
	return []kernelCase{
		{name: "apply", width: 1,
			serial:  func() []float64 { y := out(1); split(func(lo, hi int) { m.ApplyRange(y, in.x, lo, hi) }); return y },
			sharded: func() []float64 { y := out(1); a.Apply(y, in.x); return y }},
		{name: "apply-add", width: 1,
			serial: func() []float64 {
				y := from(in.b)
				split(func(lo, hi int) { m.ApplyAddRange(y, in.x, lo, hi) })
				return y
			},
			sharded: func() []float64 { y := from(in.b); itp.ApplyAdd(y, in.x); return y }},
		{name: "residual", width: 1,
			serial: func() []float64 {
				r := out(1)
				split(func(lo, hi int) { m.ResidualRange(r, in.b, in.x, lo, hi) })
				return r
			},
			sharded: func() []float64 { r := out(1); a.Residual(r, in.b, in.x); return r }},
		{name: "jacobi-residual", width: 2, square: true,
			serial: func() []float64 {
				e, t := out(1), out(1)
				split(func(lo, hi int) { m.JacobiResidualRange(e, t, in.invDiag, in.b, lo, hi) })
				return zip(e, t)
			},
			sharded: func() []float64 {
				e, t := out(1), out(1)
				a.FusedJacobiResidual(e, t, in.invDiag, in.b)
				return zip(e, t)
			},
			composed: func() []float64 {
				e, t := out(1), out(1)
				for i := range e {
					e[i] = in.invDiag[i] * in.b[i]
				}
				m.Residual(t, in.b, e)
				return zip(e, t)
			}},
		{name: "scaled-residual", width: 1, square: true,
			serial: func() []float64 {
				w := out(1)
				split(func(lo, hi int) { m.ScaledResidualRange(w, in.invDiag, in.b, lo, hi) })
				return w
			},
			sharded: func() []float64 { w := out(1); a.ScaledResidual(w, in.invDiag, in.b); return w },
			composed: func() []float64 {
				w := out(1)
				m.MatVec(w, in.b)
				for i := range w {
					w[i] = in.b[i] - in.invDiag[i]*w[i]
				}
				return w
			}},
		{name: "smoothed-residual", width: 1, square: true,
			serial: func() []float64 {
				w := out(1)
				split(func(lo, hi int) { m.SmoothedResidualRange(w, in.invDiag, in.b, lo, hi) })
				return w
			},
			sharded: func() []float64 { w := out(1); a.SmoothedResidual(w, in.invDiag, in.b); return w }},
		{name: "apply-block", width: blockK,
			serial: func() []float64 {
				y := out(blockK)
				split(func(lo, hi int) { m.ApplyBlockRange(y, in.xBlock, blockK, lo, hi) })
				return y
			},
			sharded: func() []float64 { y := out(blockK); a.ApplyBlock(y, in.xBlock, blockK); return y },
			composed: func() []float64 {
				return perColumn(rows, func(y, x, _ []float64) { m.MatVec(y, x) }, in.xBlock, nil, nil)
			}},
		{name: "apply-add-block", width: blockK,
			serial: func() []float64 {
				y := from(in.yInit)
				split(func(lo, hi int) { m.ApplyAddBlockRange(y, in.xBlock, blockK, lo, hi) })
				return y
			},
			sharded: func() []float64 { y := from(in.yInit); itp.ApplyAddBlock(y, in.xBlock, blockK); return y },
			composed: func() []float64 {
				return perColumn(rows, func(y, x, _ []float64) { m.MatVecAdd(y, x) }, in.xBlock, nil, in.yInit)
			}},
		{name: "residual-block", width: blockK,
			serial: func() []float64 {
				r := out(blockK)
				split(func(lo, hi int) { m.ResidualBlockRange(r, in.bBlock, in.xBlock, blockK, lo, hi) })
				return r
			},
			// r aliasing b is the form the block cycle uses.
			sharded: func() []float64 { r := from(in.bBlock); a.ResidualBlock(r, r, in.xBlock, blockK); return r },
			composed: func() []float64 {
				return perColumn(rows, func(r, x, b []float64) { m.Residual(r, b, x) }, in.xBlock, in.bBlock, nil)
			}},
		{name: "atomic-residual", width: 1, square: true,
			serial: func() []float64 {
				x, dst := vec.NewAtomic(rows), vec.NewAtomic(rows)
				for i, v := range in.x {
					x.Store(i, v)
				}
				split(func(lo, hi int) { a.ResidualAtomicRange(dst, in.b, x, lo, hi) })
				r := out(1)
				for i := range r {
					r[i] = dst.Load(i)
				}
				return r
			},
			composed: func() []float64 { r := out(1); m.Residual(r, in.b, in.x); return r }},
		{name: "diag", width: 1, square: true, serial: m.Diag, sharded: a.Diag},
		{name: "row-l1", width: 1, serial: m.RowL1Norms, sharded: a.RowL1Norms},
	}
}

// perColumn runs the single-vector kernel f once per packed column and
// returns the results re-packed row-major: the k-independent-solves
// reference every block kernel must match column by column. y starts from
// yInit's column when given.
func perColumn(rows int, f func(y, x, b []float64), xBlock, bBlock, yInit []float64) []float64 {
	cols := len(xBlock) / blockK
	o := make([]float64, rows*blockK)
	x, b, y := make([]float64, cols), make([]float64, rows), make([]float64, rows)
	column := func(dst, block []float64, c int) {
		for i := range dst {
			dst[i] = block[i*blockK+c]
		}
	}
	for c := 0; c < blockK; c++ {
		column(x, xBlock, c)
		if bBlock != nil {
			column(b, bBlock, c)
		}
		for i := range y {
			y[i] = 0
		}
		if yInit != nil {
			column(y, yInit, c)
		}
		f(y, x, b)
		for i, v := range y {
			o[i*blockK+c] = v
		}
	}
	return o
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
// every kernel on both stored instantiations:
//
//   - the full-vector form equals the serial Range form bitwise, sharded at
//     1, 2 and 8 workers (threshold 1) and on its below-threshold serial
//     fallback, and a fused or block kernel equals the unfused / per-column
//     sequence it replaces;
//   - conversion to float32/int32 rounds each entry once, and the float32
//     instantiation equals the float64 one run on those rounded entries
//     bitwise (float64 accumulation: only the stored entries differ);
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
		{"7pt", grid.Laplacian7pt(7), true},
		{"27pt", grid.Laplacian27pt(6), true},
		{"geom-P", GeomInterpCSR(9), true},
		{"fem-laplace", ball.A, false},
		{"random", randomCSR(rng, 313, 313, 8), false},
		{"random-tall", randomCSR(rng, 301, 47, 3), false},
	} {
		m64 := fx.m
		m32 := sparse.Convert[float32, int32](m64)
		widened := sparse.Convert[float64, int](m32)
		exact := true
		for q, v := range m64.Vals {
			if m32.Vals[q] != float32(v) || int(m32.ColIdx[q]) != m64.ColIdx[q] {
				t.Fatalf("%s: entry %d converted to (%d, %v), want (%d, %v)", fx.name, q, m32.ColIdx[q], m32.Vals[q], m64.ColIdx[q], float32(v))
			}
			exact = exact && widened.Vals[q] == v
		}
		if exact != fx.exact32 {
			t.Fatalf("%s: entries exact in float32 = %v, want %v", fx.name, exact, fx.exact32)
		}
		if got, want := m32.Bytes(), 4*(len(m64.RowPtr)+2*m64.NNZ()); got != want {
			t.Fatalf("%s: float32 store is %d bytes, want %d", fx.name, got, want)
		}
		if got, want := m64.Bytes(), 8*(len(m64.RowPtr)+2*m64.NNZ()); got != want {
			t.Fatalf("%s: float64 store is %d bytes, want %d", fx.name, got, want)
		}

		in := newKernelInputs(rng, m64.Rows, m64.Cols)
		c64, c32, cw := kernelCases(m64, in), kernelCases(m32, in), kernelCases(widened, in)
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
				assertBitwise(t, name+"/f32 vs composed", serial32[ci], c32[ci].composed())
			}
			assertBitwise(t, name+"/f32 vs f64 on rounded entries", serial32[ci], cw[ci].serial())
			for i, got := range serial32[ci] {
				if tol := 0x1p-24 * rowL1[i/kc.width] * (1 + 1e-6); math.Abs(got-serial64[ci][i]) > tol {
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
					assertBitwise(t, kc.name+"/f32 sharded", c32[ci].sharded(), serial32[ci])
				}
			})
		}
	}
}

// TestCSRKernelOperandValidation pins the operand checks on both
// instantiations: a block kernel with a mismatched column count or slice
// length panics before touching memory, and AsCSR exposes only the
// zero-copy float64 view.
func TestCSRKernelOperandValidation(t *testing.T) {
	m := grid.Laplacian7pt(4)
	n := m.Rows
	a64, a32 := FromCSR(m), NewCSR32(m)
	if AsCSR(a64) != m {
		t.Fatal("AsCSR should return the wrapped matrix")
	}
	if AsCSR(a32) != nil || AsCSR(NewStencil7(4)) != nil {
		t.Fatal("AsCSR on a float32 store or a stencil should be nil")
	}
	type blockOp interface {
		BlockOperator
		BlockApplier
	}
	for name, a := range map[string]blockOp{"f64": a64, "f32": a32} {
		for _, bad := range []struct {
			what string
			call func()
		}{
			{"k=0", func() { a.ApplyBlock(make([]float64, n), make([]float64, n), 0) }},
			{"short x", func() { a.ApplyBlock(make([]float64, 2*n), make([]float64, 2*n-1), 2) }},
			{"short y", func() { a.ResidualBlock(make([]float64, n), make([]float64, 2*n), make([]float64, 2*n), 2) }},
			{"short rhs", func() { a.ResidualBlock(make([]float64, 2*n), make([]float64, n), make([]float64, 2*n), 2) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: block kernel with %s did not panic", name, bad.what)
					}
				}()
				bad.call()
			}()
		}
	}
}
