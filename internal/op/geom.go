package op

import (
	"fmt"
	"math/bits"
	"slices"

	"asyncmg/internal/sparse"
)

// GeomInterp is a matrix-free interpolant between a fine n×n×n grid and
// its 2h coarsening, stored as a class table: the trilinear P, or the
// smoothed P̄ = P − diag(s)·A·P that Smooth builds from it. Coarse points
// sit at the odd fine indices (1, 3, …, 2·nc−1 per dimension, nc = n/2);
// odd fine points copy their coarse value (1-D weight 1) and even fine
// points average their up-to-two coarse neighbours (weights ½, with the
// boundary side dropped — the eliminated Dirichlet value is zero).
//
// A row of P or P̄ depends only on the row's neighbourhood along each
// axis, so the fine indices of one axis fall into a few classes (at most
// six: 0, 1, odd and even interior, n−2 and n−1) and the coarse indices
// into as many more (by the fine classes of the five fine points a coarse
// point's restriction row reaches). The table holds:
//
//   - the prolongation part, one row per fine class of the 3-D grid, its
//     columns as offsets from the row's coarse base point (f/2 − 1 per
//     axis, the first point of the 3×3×3 coarse box every column lies in);
//   - the restriction part, one row of Pᵀ per coarse class, its columns as
//     offsets from the coarse point's fine position. Restriction is a
//     gather over fine rows, so it shards over coarse rows with no
//     atomics.
//
// Every row is evaluated once, on its class's representative point, with
// the floating-point operations of the materialized product, and both
// parts list their entries in ascending-column order, so every kernel is
// bitwise-identical to the CSR kernel on the materialized matrix (CSR) and
// its transpose at any worker count.
type GeomInterp struct {
	n, nc int
	// cls[f] is the class of fine index f along one axis, rep[c] the
	// first fine index of class c; ccls and crep are the same for coarse
	// indices.
	cls, ccls []uint8
	rep, crep []int
	// p[(ci·nf+cj)·nf+ck] is the prolongation row of fine class
	// (ci, cj, ck), nf = len(rep); pt the restriction row of a coarse
	// class, indexed alike.
	p, pt [][]stencilEntry
	nnz   int // nonzeros of the materialized matrix
}

// geomTap is the row of the 1-D interpolant at one fine index: the cnt
// coarse indices it interpolates from and their common weight.
type geomTap struct {
	c   [2]int
	cnt int
	w   float64
}

// axisTaps tabulates the 1-D interpolant from nc coarse to n fine points:
// one tap (weight 1) at odd f, up to two (weight ½ each) at even f with
// out-of-range sides dropped.
func axisTaps(n, nc int) []geomTap {
	taps := make([]geomTap, n)
	for f := range taps {
		t := &taps[f]
		if f&1 == 1 {
			t.c[0], t.cnt, t.w = (f-1)/2, 1, 1
			continue
		}
		t.w = 0.5
		if f > 0 {
			t.c[t.cnt] = f/2 - 1
			t.cnt++
		}
		if f/2 < nc {
			t.c[t.cnt] = f / 2
			t.cnt++
		}
	}
	return taps
}

// NewGeomInterp returns the trilinear interpolant for a fine n×n×n grid
// (n ≥ 3).
func NewGeomInterp(n int) *GeomInterp {
	if n < 3 {
		panic(fmt.Sprintf("op: GeomInterp needs n >= 3, got %d", n))
	}
	g := &GeomInterp{n: n, nc: n / 2}
	taps := axisTaps(n, g.nc)
	// A fine index's class: its parity and, for f−1, f and f+1, whether
	// it is on the grid and its taps relative to the coarse base f/2 − 1.
	// That fixes the A row's boundary class too.
	g.cls, g.rep = classes(n, func(f int) (key [7]int) {
		key[0] = f & 1
		for q := 0; q < 3; q++ {
			if h := f + q - 1; h >= 0 && h < n {
				key[1+2*q], key[2+2*q] = taps[h].c[0]-(f/2-1), taps[h].cnt
			} else {
				key[1+2*q] = -1
			}
		}
		return key
	})
	// A coarse index's class: the fine classes of 2c−1 … 2c+3.
	g.ccls, g.crep = classes(g.nc, func(c int) (key [5]int) {
		for q := range key {
			key[q] = -1
			if f := 2*c - 1 + q; f >= 0 && f < n {
				key[q] = int(g.cls[f])
			}
		}
		return key
	})
	g.build(func(f [3]int, dst []stencilEntry) []stencilEntry {
		ti, tj, tk := &taps[f[0]], &taps[f[1]], &taps[f[2]]
		for a := 0; a < ti.cnt; a++ {
			for b := 0; b < tj.cnt; b++ {
				for c := 0; c < tk.cnt; c++ {
					dst = append(dst, stencilEntry{
						d: [3]int8{int8(ti.c[a] - f[0]/2 + 1), int8(tj.c[b] - f[1]/2 + 1), int8(tk.c[c] - f[2]/2 + 1)},
						v: (ti.w * tj.w) * tk.w})
				}
			}
		}
		return dst
	})
	return g
}

// classes numbers the distinct keys of the indices 0 … m−1 in order of
// first appearance: cls[i] is i's class, rep[c] the first index of class c.
func classes[K comparable](m int, key func(int) K) (cls []uint8, rep []int) {
	var keys []K
	cls = make([]uint8, m)
	for i := range cls {
		k := key(i)
		c := slices.Index(keys, k)
		if c < 0 {
			c = len(keys)
			keys, rep = append(keys, k), append(rep, i)
		}
		cls[i] = uint8(c)
	}
	return cls, rep
}

// build fills the table: the prolongation row of each fine class from
// row, evaluated on the class's representative point and returning
// entries at coarse box positions d ∈ [0, 2]³ in ascending order, then
// each coarse class's restriction row from those.
func (g *GeomInterp) build(row func(f [3]int, dst []stencilEntry) []stencilEntry) {
	n, nc, nf := g.n, g.nc, len(g.rep)
	count := make([]int, nf)
	for _, c := range g.cls {
		count[c]++
	}
	g.p, g.nnz = make([][]stencilEntry, nf*nf*nf), 0
	for c := range g.p {
		ci, cj, ck := c/(nf*nf), c/nf%nf, c%nf
		es := row([3]int{g.rep[ci], g.rep[cj], g.rep[ck]}, nil)
		for q := range es {
			d := &es[q].d
			es[q].off = int32((int(d[0])*nc+int(d[1]))*nc + int(d[2]))
		}
		g.p[c] = es
		g.nnz += count[ci] * count[cj] * count[ck] * len(es)
	}
	// Row c of Pᵀ gathers column c of the fine rows f = 2c+1+d, d ∈
	// [−2, 2]³, ascending; c sits at box position c − (f/2 − 1) of row f.
	ncc := len(g.crep)
	g.pt = make([][]stencilEntry, ncc*ncc*ncc)
	for c := range g.pt {
		cp := [3]int{g.crep[c/(ncc*ncc)], g.crep[c/ncc%ncc], g.crep[c%ncc]}
		var es []stencilEntry
		for di := -2; di <= 2; di++ {
			for dj := -2; dj <= 2; dj++ {
				for dk := -2; dk <= 2; dk++ {
					d := [3]int{di, dj, dk}
					var f, box [3]int
					for a := range f {
						f[a] = 2*cp[a] + 1 + d[a]
						box[a] = cp[a] - f[a]/2 + 1
					}
					if min(f[0], f[1], f[2]) < 0 || max(f[0], f[1], f[2]) >= n {
						continue
					}
					for _, e := range g.p[g.fineClass(f[0], f[1], f[2])] {
						if e.d == [3]int8{int8(box[0]), int8(box[1]), int8(box[2])} {
							es = append(es, stencilEntry{off: int32((di*n+dj)*n + dk), d: [3]int8{int8(di), int8(dj), int8(dk)}, v: e.v})
						}
					}
				}
			}
		}
		g.pt[c] = es
	}
}

// fineClass is the table index of fine point (i, j, k).
func (g *GeomInterp) fineClass(i, j, k int) int {
	nf := len(g.rep)
	return (int(g.cls[i])*nf+int(g.cls[j]))*nf + int(g.cls[k])
}

// Smooth returns the smoothed interpolant P̄ = P − diag(scale)·A·P over
// the fine operator a, as a table of the same classes. scale must be
// constant on each class of a, as the ω- and ℓ1-Jacobi scales of a
// stencil are; it is read at each class's representative row. Each row is
// formed as sparse.MatMul(A, P), ScaleRows and Sub form it: A·P by the
// Galerkin coarsening's row merge, then each entry scaled and subtracted
// from P's, so every weight equals the product's bitwise.
func (g *GeomInterp) Smooth(a *Stencil, scale []float64) *GeomInterp {
	if a.n != g.n || len(scale) != a.Rows() {
		panic(fmt.Sprintf("op: Smooth of a %d-edge interpolant over a %d-edge operator with %d scales", g.n, a.n, len(scale)))
	}
	n := g.n
	k := &galerkin{fine: a, taps: axisTaps(n, g.nc)}
	s := &GeomInterp{n: n, nc: g.nc, cls: g.cls, ccls: g.ccls, rep: g.rep, crep: g.crep}
	s.build(func(f [3]int, dst []stencilEntry) []stencilEntry {
		sc := scale[(f[0]*n+f[1])*n+f[2]]
		var ap [27]float64
		set := k.apRow(&ap, f[0], f[1], f[2], f[0]/2-1, f[1]/2-1, f[2]/2-1)
		p := g.p[g.fineClass(f[0], f[1], f[2])]
		for slot := 0; slot < 27; slot++ {
			e := stencilEntry{d: [3]int8{int8(slot / 9), int8(slot / 3 % 3), int8(slot % 3)}}
			inP := len(p) > 0 && p[0].d == e.d
			inAP := set&(1<<slot) != 0
			switch {
			case inP && inAP:
				e.v = p[0].v - float64(ap[slot]*sc)
			case inP:
				e.v = p[0].v
			case inAP:
				e.v = -float64(ap[slot] * sc)
			default:
				continue
			}
			if inP {
				p = p[1:]
			}
			dst = append(dst, e)
		}
		return dst
	})
	return s
}

// RoundFloat32 returns a copy whose weights are rounded to float32,
// exactly as NewCSR32Interp rounds the materialized pair: the
// mixed-precision view of a coarse-level interpolant, still accumulated
// in float64.
func (g *GeomInterp) RoundFloat32() *GeomInterp {
	r := *g
	round := func(rows [][]stencilEntry) [][]stencilEntry {
		out := make([][]stencilEntry, len(rows))
		for c, es := range rows {
			out[c] = make([]stencilEntry, len(es))
			for q, e := range es {
				e.v = float64(float32(e.v))
				out[c][q] = e
			}
		}
		return out
	}
	r.p, r.pt = round(g.p), round(g.pt)
	return &r
}

func (g *GeomInterp) FineRows() int      { return g.n * g.n * g.n }
func (g *GeomInterp) CoarseRows() int    { return g.nc * g.nc * g.nc }
func (g *GeomInterp) NNZEquivalent() int { return g.nnz }

// Bytes is the class table: both parts' entries and the per-axis class
// maps, whatever the grid's row count.
func (g *GeomInterp) Bytes() int {
	b := len(g.cls) + len(g.ccls)
	for _, rows := range [][][]stencilEntry{g.p, g.pt} {
		for _, es := range rows {
			b += entryBytes * len(es)
		}
	}
	return b
}

// ApplyRange computes fine[lo:hi] = (P coarse)[lo:hi].
func (g *GeomInterp) ApplyRange(fine, coarse []float64, lo, hi int) {
	g.prolong(fine, coarse, lo, hi, false)
}

// ApplyAddRange computes fine[lo:hi] += (P coarse)[lo:hi]: the row sum
// accumulates fully before the single add, as the CSR kernel's does.
func (g *GeomInterp) ApplyAddRange(fine, coarse []float64, lo, hi int) {
	g.prolong(fine, coarse, lo, hi, true)
}

// prolong walks rows [lo, hi) a grid line (i, j fixed) at a time: the
// line's class rows and coarse base are set once, and along the line a
// row's class is cls[k] and its base moves by one every two rows. Rows k,
// k+2, k+4 and k+6 of one class read the same entries at four
// consecutive coarse points, so where the classes repeat with period two
// (the interior of the line) rows k … k+7 run as two such quadruples, each
// one pass over its class row with four independent sums.
func (g *GeomInterp) prolong(fine, coarse []float64, lo, hi int, add bool) {
	n, nc, nf, cls := g.n, g.nc, len(g.rep), g.cls
	store := func(row int, t float64) {
		if add {
			fine[row] += t
		} else {
			fine[row] = t
		}
	}
	for row := lo; row < hi; {
		i, j, k := row/(n*n), row/n%n, row%n
		end := min(hi, row-k+n)
		line := g.p[(int(cls[i])*nf+int(cls[j]))*nf:][:nf]
		base := ((i/2-1)*nc+j/2-1)*nc - 1
		for row < end {
			if row+8 <= end && repeats(cls[k:k+8], 2) {
				for q := 0; q < 2; q++ {
					b := base + (k+q)/2
					t0, t1, t2, t3 := 0.0, 0.0, 0.0, 0.0
					for _, e := range line[cls[k+q]] {
						x := coarse[b+int(e.off):][:4]
						t0 += e.v * x[0]
						t1 += e.v * x[1]
						t2 += e.v * x[2]
						t3 += e.v * x[3]
					}
					store(row+q, t0)
					store(row+q+2, t1)
					store(row+q+4, t2)
					store(row+q+6, t3)
				}
				row, k = row+8, k+8
				continue
			}
			b := base + k/2
			t := 0.0
			for _, e := range line[cls[k]] {
				t += e.v * coarse[b+int(e.off)]
			}
			store(row, t)
			row, k = row+1, k+1
		}
	}
}

// repeats reports whether cls repeats with period p.
func repeats(cls []uint8, p int) bool {
	for q := p; q < len(cls); q++ {
		if cls[q] != cls[q-p] {
			return false
		}
	}
	return true
}

// ApplyTRange computes coarse[lo:hi] = (Pᵀ fine)[lo:hi], a coarse grid
// line at a time like prolong: four consecutive rows of one class read
// the same entries at fine points two apart, so they run as one pass over
// their class row with four independent sums.
func (g *GeomInterp) ApplyTRange(coarse, fine []float64, lo, hi int) {
	n, nc, ncc, cls := g.n, g.nc, len(g.crep), g.ccls
	for row := lo; row < hi; {
		ci, cj, ck := row/(nc*nc), row/nc%nc, row%nc
		end := min(hi, row-ck+nc)
		line := g.pt[(int(cls[ci])*ncc+int(cls[cj]))*ncc:][:ncc]
		f := ((2*ci+1)*n+2*cj+1)*n + 2*ck + 1
		for row < end {
			if row+4 <= end && repeats(cls[ck:ck+4], 1) {
				t0, t1, t2, t3 := 0.0, 0.0, 0.0, 0.0
				for _, e := range line[cls[ck]] {
					x := fine[f+int(e.off):][:7]
					t0 += e.v * x[0]
					t1 += e.v * x[2]
					t2 += e.v * x[4]
					t3 += e.v * x[6]
				}
				coarse[row], coarse[row+1], coarse[row+2], coarse[row+3] = t0, t1, t2, t3
				row, ck, f = row+4, ck+4, f+8
				continue
			}
			t := 0.0
			for _, e := range line[cls[ck]] {
				t += e.v * fine[f+int(e.off)]
			}
			coarse[row] = t
			row, ck, f = row+1, ck+1, f+2
		}
	}
}

func (g *GeomInterp) Apply(fine, coarse []float64) {
	sparse.RunRows(g.nnz, g.FineRows(), sparse.KApply, g, fine, coarse)
}

func (g *GeomInterp) ApplyAdd(fine, coarse []float64) {
	sparse.RunRows(g.nnz, g.FineRows(), sparse.KApplyAdd, g, fine, coarse)
}

func (g *GeomInterp) ApplyT(coarse, fine []float64) {
	sparse.RunRows(g.nnz, g.CoarseRows(), sparse.KApplyT, g, coarse, fine)
}

// CSR materializes the interpolant as a float64 CSR matrix, allocated
// once at its exact size: each row its class row shifted to its base.
func (g *GeomInterp) CSR() *sparse.CSR {
	n, nc := g.n, g.nc
	rows := g.FineRows()
	p := &sparse.CSR{Rows: rows, Cols: g.CoarseRows(), RowPtr: make([]int, rows+1),
		ColIdx: make([]int, g.nnz), Vals: make([]float64, g.nnz)}
	q := 0
	for row := 0; row < rows; row++ {
		i, j, k := row/(n*n), row/n%n, row%n
		b := ((i/2-1)*nc+j/2-1)*nc + k/2 - 1
		for _, e := range g.p[g.fineClass(i, j, k)] {
			p.ColIdx[q], p.Vals[q] = b+int(e.off), e.v
			q++
		}
		p.RowPtr[row+1] = q
	}
	return p
}

// GeomInterpCSR materializes the trilinear interpolant for a fine n×n×n
// grid as CSR.
func GeomInterpCSR(n int) *sparse.CSR { return NewGeomInterp(n).CSR() }

// ---- matrix-free Galerkin coarsening ----

// Coarsen builds one geometric coarsening of the operator: the trilinear
// interpolant P onto the 2h grid and the Galerkin coarse level Pᵀ·A·P as
// a Stencil. A coarse row's products depend only on which of its
// coordinates touch the grid boundary, so the coarse level has the same
// 27 classes and the Galerkin row body runs once per class, on the
// class's representative row: O(27) rows whatever n. The coarse level is
// a Stencil like any other, so it coarsens again the same way;
// amg.BuildOperatorWithStats does so down to 4 096 rows and continues
// algebraically from the last coarse level materialized (CSR).
func (s *Stencil) Coarsen() (*GeomInterp, *Stencil, error) {
	if s.n < 3 {
		return nil, nil, fmt.Errorf("op: grid edge %d too small to coarsen geometrically (need n >= 3)", s.n)
	}
	g := NewGeomInterp(s.n)
	k := &galerkin{fine: s, taps: axisTaps(s.n, g.nc)}
	return g, newStencil(g.nc, k.row), nil
}

// galerkin forms rows of A₁ = P₀ᵀ·A·P₀ for the fine stencil A and the
// trilinear P₀ (A and A₁ stand for any two consecutive geometric levels),
// one coarse row I at a time:
//
//   - I's fine neighbours f (its Pᵀ row) are walked in ascending order
//     with the weights of the trilinear restriction;
//   - row f of A·P₀ is accumulated over f's class row (entries in
//     ascending-column order) times P₀'s rows (taps tabulated per
//     dimension), then folded into row I as w_If·(A·P₀)_f.
//
// Every column either accumulator touches lies in the 3×3×3 coarse box
// centred at I, so both are 27-slot arrays indexed by box position, and
// a bitset of touched slots yields the columns in ascending order without
// a sort. The floating-point operations and their order are those of
// sparse.MatMul(P₀ᵀ, A·P₀) with A·P₀ from the same Gustavson row merge,
// so each row is bitwise equal to that product's.
type galerkin struct {
	fine *Stencil
	taps []geomTap
}

// row appends coarse row p = (ci, cj, ck) of A₁ to dst.
func (k *galerkin) row(p [3]int, dst []stencilEntry) []stencilEntry {
	n := k.fine.n
	ci, cj, ck := p[0], p[1], p[2]
	var ap, acc [27]float64
	var rowSet uint32
	for di := -1; di <= 1; di++ {
		fi := 2*ci + 1 + di
		if fi < 0 || fi >= n {
			continue
		}
		wi := 1.0
		if di != 0 {
			wi = 0.5
		}
		for dj := -1; dj <= 1; dj++ {
			fj := 2*cj + 1 + dj
			if fj < 0 || fj >= n {
				continue
			}
			wj := 1.0
			if dj != 0 {
				wj = 0.5
			}
			wij := wi * wj
			for dk := -1; dk <= 1; dk++ {
				fk := 2*ck + 1 + dk
				if fk < 0 || fk >= n {
					continue
				}
				wk := 1.0
				if dk != 0 {
					wk = 0.5
				}
				apSet := k.apRow(&ap, fi, fj, fk, ci-1, cj-1, ck-1)
				w := wij * wk
				for set := apSet; set != 0; set &= set - 1 {
					s := bits.TrailingZeros32(set)
					if rowSet&(1<<s) == 0 {
						rowSet |= 1 << s
						acc[s] = 0
					}
					acc[s] += w * ap[s]
				}
			}
		}
	}
	for set := rowSet; set != 0; set &= set - 1 {
		s := bits.TrailingZeros32(set)
		dst = append(dst, stencilEntry{d: [3]int8{int8(s/9 - 1), int8(s/3%3 - 1), int8(s%3 - 1)}, v: acc[s]})
	}
	return dst
}

// apRow accumulates row f = (fi, fj, fk) of A·P₀ into ap, indexed by
// position in the 3×3×3 coarse box whose first point is (ci0, cj0, ck0),
// and returns the bitset of the slots it touched. f's class row holds
// exactly the in-grid neighbours, so no entry is bounds-checked.
func (k *galerkin) apRow(ap *[27]float64, fi, fj, fk, ci0, cj0, ck0 int) uint32 {
	f, taps := k.fine, k.taps
	var set uint32
	for _, e := range f.classes[f.classOf(fi, fj, fk)] {
		ti, tj, tk := &taps[fi+int(e.d[0])], &taps[fj+int(e.d[1])], &taps[fk+int(e.d[2])]
		for a := 0; a < ti.cnt; a++ {
			for b := 0; b < tj.cnt; b++ {
				base := ((ti.c[a]-ci0)*3 + tj.c[b] - cj0) * 3
				pij := ti.w * tj.w
				for c := 0; c < tk.cnt; c++ {
					s := base + tk.c[c] - ck0
					if set&(1<<s) == 0 {
						set |= 1 << s
						ap[s] = 0
					}
					ap[s] += e.v * (pij * tk.w)
				}
			}
		}
	}
	return set
}
