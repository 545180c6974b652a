package op

import (
	"fmt"
	"math/bits"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// GeomInterp is the matrix-free trilinear interpolant between a fine
// n×n×n grid and its 2h coarsening: coarse points sit at the odd fine
// indices (1, 3, …, 2·nc−1 per dimension, nc = n/2), odd fine points copy
// their coarse value (1-D weight 1) and even fine points average their
// up-to-two coarse neighbours (weights ½, with the boundary side dropped —
// the eliminated Dirichlet value is zero). A fine point's weight is the
// product (wi·wj)·wk of its per-dimension weights; all weights are exact
// powers of two, so prolongation and restriction round identically to the
// materialized CSR interpolant (GeomInterpCSR) and its transpose.
type GeomInterp struct {
	n, nc int
	nnz   int
}

// NewGeomInterp returns the trilinear interpolant for a fine n×n×n grid
// (n ≥ 3).
func NewGeomInterp(n int) *GeomInterp {
	if n < 3 {
		panic(fmt.Sprintf("op: GeomInterp needs n >= 3, got %d", n))
	}
	nc := n / 2
	// Entries per fine row factor over dimensions, so the total count is
	// the cube of the 1-D sum.
	s := 0
	for fi := 0; fi < n; fi++ {
		_, _, _, _, cnt := geomDim(fi, nc)
		s += cnt
	}
	return &GeomInterp{n: n, nc: nc, nnz: s * s * s}
}

// geomDim returns the coarse indices and 1-D weights a fine index fi
// interpolates from: one entry (weight 1) for odd fi, up to two entries
// (weight ½ each) for even fi with out-of-range sides dropped.
func geomDim(fi, nc int) (c0 int, w0 float64, c1 int, w1 float64, cnt int) {
	if fi&1 == 1 {
		return (fi - 1) / 2, 1.0, 0, 0, 1
	}
	if fi > 0 {
		c0, w0 = fi/2-1, 0.5
		cnt = 1
	}
	if fi/2 < nc {
		if cnt == 0 {
			c0, w0 = fi/2, 0.5
		} else {
			c1, w1 = fi/2, 0.5
		}
		cnt++
	}
	return c0, w0, c1, w1, cnt
}

// N is the fine grid edge length; NC the coarse edge length.
func (g *GeomInterp) N() int  { return g.n }
func (g *GeomInterp) NC() int { return g.nc }

func (g *GeomInterp) FineRows() int      { return g.n * g.n * g.n }
func (g *GeomInterp) CoarseRows() int    { return g.nc * g.nc * g.nc }
func (g *GeomInterp) NNZEquivalent() int { return g.nnz }

// Bytes is zero: the interpolant holds no matrix storage.
func (g *GeomInterp) Bytes() int { return 0 }

// ApplyRange computes fine[lo:hi] = (P coarse)[lo:hi]: for each fine row,
// the weighted sum over its (up to eight) coarse neighbours, columns
// visited in ascending order exactly as the CSR row stores them.
func (g *GeomInterp) ApplyRange(fine, coarse []float64, lo, hi int) {
	n, nc := g.n, g.nc
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		ci0, wi0, ci1, wi1, cntI := geomDim(i, nc)
		cj0, wj0, cj1, wj1, cntJ := geomDim(j, nc)
		ck0, wk0, ck1, wk1, cntK := geomDim(k, nc)
		cis := [2]int{ci0, ci1}
		wis := [2]float64{wi0, wi1}
		cjs := [2]int{cj0, cj1}
		wjs := [2]float64{wj0, wj1}
		cks := [2]int{ck0, ck1}
		wks := [2]float64{wk0, wk1}
		s := 0.0
		for a := 0; a < cntI; a++ {
			for b := 0; b < cntJ; b++ {
				base := (cis[a]*nc + cjs[b]) * nc
				wij := wis[a] * wjs[b]
				for c := 0; c < cntK; c++ {
					s += (wij * wks[c]) * coarse[base+cks[c]]
				}
			}
		}
		fine[row] = s
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
		}
	}
}

// ApplyTRange computes coarse[lo:hi] = (Pᵀ fine)[lo:hi]: for each coarse
// row, the weighted sum over its 3×3×3 fine neighbourhood (centre at the
// coarse point's fine position), visited in ascending fine order exactly
// as the transposed CSR row stores it.
func (g *GeomInterp) ApplyTRange(coarse, fine []float64, lo, hi int) {
	n, nc := g.n, g.nc
	ncnc := nc * nc
	ci, cj, ck := lo/ncnc, (lo%ncnc)/nc, lo%nc
	for row := lo; row < hi; row++ {
		fi0, fj0, fk0 := 2*ci+1, 2*cj+1, 2*ck+1
		s := 0.0
		for di := -1; di <= 1; di++ {
			fi := fi0 + di
			if fi < 0 || fi >= n {
				continue
			}
			wi := 1.0
			if di != 0 {
				wi = 0.5
			}
			for dj := -1; dj <= 1; dj++ {
				fj := fj0 + dj
				if fj < 0 || fj >= n {
					continue
				}
				wj := 1.0
				if dj != 0 {
					wj = 0.5
				}
				wij := wi * wj
				base := (fi*n + fj) * n
				for dk := -1; dk <= 1; dk++ {
					fk := fk0 + dk
					if fk < 0 || fk >= n {
						continue
					}
					wk := 1.0
					if dk != 0 {
						wk = 0.5
					}
					s += (wij * wk) * fine[base+fk]
				}
			}
		}
		coarse[row] = s
		if ck++; ck == nc {
			ck = 0
			if cj++; cj == nc {
				cj = 0
				ci++
			}
		}
	}
}

// ApplyAddRange computes fine[lo:hi] += (P coarse)[lo:hi]: the row sum
// accumulates fully before the single add, matching MatVecAdd's
// `y[i] += s` association.
func (g *GeomInterp) ApplyAddRange(fine, coarse []float64, lo, hi int) {
	n, nc := g.n, g.nc
	nn := n * n
	i, j, k := lo/nn, (lo%nn)/n, lo%n
	for row := lo; row < hi; row++ {
		ci0, wi0, ci1, wi1, cntI := geomDim(i, nc)
		cj0, wj0, cj1, wj1, cntJ := geomDim(j, nc)
		ck0, wk0, ck1, wk1, cntK := geomDim(k, nc)
		cis := [2]int{ci0, ci1}
		wis := [2]float64{wi0, wi1}
		cjs := [2]int{cj0, cj1}
		wjs := [2]float64{wj0, wj1}
		cks := [2]int{ck0, ck1}
		wks := [2]float64{wk0, wk1}
		s := 0.0
		for a := 0; a < cntI; a++ {
			for b := 0; b < cntJ; b++ {
				base := (cis[a]*nc + cjs[b]) * nc
				wij := wis[a] * wjs[b]
				for c := 0; c < cntK; c++ {
					s += (wij * wks[c]) * coarse[base+cks[c]]
				}
			}
		}
		fine[row] += s
		if k++; k == n {
			k = 0
			if j++; j == n {
				j = 0
				i++
			}
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

// CSR materializes the interpolant as a float64 CSR matrix (setup-time
// Galerkin products and tests; the solve path never calls it).
func (g *GeomInterp) CSR() *sparse.CSR {
	n, nc := g.n, g.nc
	rows := n * n * n
	p := &sparse.CSR{Rows: rows, Cols: nc * nc * nc, RowPtr: make([]int, rows+1)}
	p.ColIdx = make([]int, 0, g.nnz)
	p.Vals = make([]float64, 0, g.nnz)
	row := 0
	for i := 0; i < n; i++ {
		ci0, wi0, ci1, wi1, cntI := geomDim(i, nc)
		cis := [2]int{ci0, ci1}
		wis := [2]float64{wi0, wi1}
		for j := 0; j < n; j++ {
			cj0, wj0, cj1, wj1, cntJ := geomDim(j, nc)
			cjs := [2]int{cj0, cj1}
			wjs := [2]float64{wj0, wj1}
			for k := 0; k < n; k++ {
				ck0, wk0, ck1, wk1, cntK := geomDim(k, nc)
				cks := [2]int{ck0, ck1}
				wks := [2]float64{wk0, wk1}
				for a := 0; a < cntI; a++ {
					for b := 0; b < cntJ; b++ {
						base := (cis[a]*nc + cjs[b]) * nc
						wij := wis[a] * wjs[b]
						for c := 0; c < cntK; c++ {
							p.ColIdx = append(p.ColIdx, base+cks[c])
							p.Vals = append(p.Vals, wij*wks[c])
						}
					}
				}
				row++
				p.RowPtr[row] = len(p.Vals)
			}
		}
	}
	return p
}

// GeomInterpCSR materializes the trilinear interpolant for a fine n×n×n
// grid as CSR.
func GeomInterpCSR(n int) *sparse.CSR { return NewGeomInterp(n).CSR() }

// ---- matrix-free Galerkin coarsening ----

// stencilEntry is one term of a constant-coefficient stencil: the grid
// offset of the neighbour and its coefficient.
type stencilEntry struct {
	di, dj, dk int8
	v          float64
}

// The stencils' entry tables, in ascending-column order (lexicographic in
// (di, dj, dk)), the order the CSR generators store a row in.
var (
	lap7Entries = []stencilEntry{
		{-1, 0, 0, lap7Off}, {0, -1, 0, lap7Off}, {0, 0, -1, lap7Off},
		{0, 0, 0, lap7Diag},
		{0, 0, 1, lap7Off}, {0, 1, 0, lap7Off}, {1, 0, 0, lap7Off},
	}
	lap27Entries = []stencilEntry{
		{-1, -1, -1, lap27Off}, {-1, -1, 0, lap27Off}, {-1, -1, 1, lap27Off},
		{-1, 0, -1, lap27Off}, {-1, 0, 0, lap27Off}, {-1, 0, 1, lap27Off},
		{-1, 1, -1, lap27Off}, {-1, 1, 0, lap27Off}, {-1, 1, 1, lap27Off},
		{0, -1, -1, lap27Off}, {0, -1, 0, lap27Off}, {0, -1, 1, lap27Off},
		{0, 0, -1, lap27Off}, {0, 0, 0, lap27Diag}, {0, 0, 1, lap27Off},
		{0, 1, -1, lap27Off}, {0, 1, 0, lap27Off}, {0, 1, 1, lap27Off},
		{1, -1, -1, lap27Off}, {1, -1, 0, lap27Off}, {1, -1, 1, lap27Off},
		{1, 0, -1, lap27Off}, {1, 0, 0, lap27Off}, {1, 0, 1, lap27Off},
		{1, 1, -1, lap27Off}, {1, 1, 0, lap27Off}, {1, 1, 1, lap27Off},
	}
)

// geomTap is geomDim's result for one fine index: the cnt coarse indices
// it interpolates from and their common 1-D weight.
type geomTap struct {
	c   [2]int
	cnt int
	w   float64
}

// galerkinKernel forms rows of A₁ = P₀ᵀ·A·P₀ for a constant-coefficient
// stencil A and the trilinear P₀, one coarse row I at a time:
//
//   - I's fine neighbours f (its Pᵀ row) are walked in ascending order
//     with the weights ApplyTRange uses;
//   - row f of A·P₀ is accumulated over A's row f (stencil entries in
//     ascending-column order) times P₀'s rows (taps tabulated per
//     dimension), then folded into row I as w_If·(A·P₀)_f.
//
// Every column either accumulator touches lies in the 3×3×3 coarse box
// centred at I, so both are 27-slot arrays indexed by box position, and
// a bitset of touched slots yields the columns in ascending order without
// a sort. The floating-point operations and their order are those of
// sparse.MatMul(P₀ᵀ, A·P₀) with A·P₀ from the same Gustavson row merge,
// so the result is bitwise equal to it at any worker count.
type galerkinKernel struct {
	n, nc int
	st    []stencilEntry
	taps  []geomTap
	a1    *sparse.CSR
}

func (k *galerkinKernel) Do(_, lo, hi int) {
	n, nc := k.n, k.nc
	ncnc := nc * nc
	var ap, acc [27]float64
	ci, cj, ck := lo/ncnc, (lo%ncnc)/nc, lo%nc
	for row := lo; row < hi; row++ {
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
		q, end := k.a1.RowPtr[row], k.a1.RowPtr[row+1]
		if got := bits.OnesCount32(rowSet); got != end-q {
			panic(fmt.Sprintf("op: Galerkin row %d has %d entries, want %d", row, got, end-q))
		}
		corner := ((ci-1)*nc+cj-1)*nc + ck - 1 // column of box slot 0
		for set := rowSet; set != 0; set &= set - 1 {
			s := bits.TrailingZeros32(set)
			k.a1.ColIdx[q] = corner + (s/9*nc+s/3%3)*nc + s%3
			k.a1.Vals[q] = acc[s]
			q++
		}
		if ck++; ck == nc {
			ck = 0
			if cj++; cj == nc {
				cj = 0
				ci++
			}
		}
	}
}

// apRow accumulates row f = (fi, fj, fk) of A·P₀ into ap, indexed by
// position in the 3×3×3 coarse box whose first point is (ci0, cj0, ck0),
// and returns the bitset of the slots it touched.
func (k *galerkinKernel) apRow(ap *[27]float64, fi, fj, fk, ci0, cj0, ck0 int) uint32 {
	n, taps := k.n, k.taps
	var set uint32
	for _, e := range k.st {
		gi, gj, gk := fi+int(e.di), fj+int(e.dj), fk+int(e.dk)
		if gi < 0 || gi >= n || gj < 0 || gj >= n || gk < 0 || gk >= n {
			continue
		}
		ti, tj, tk := &taps[gi], &taps[gj], &taps[gk]
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

// geomCoarsen builds the first (geometric) coarsening of a structured
// stencil operator on an n×n×n grid: the matrix-free trilinear
// interpolant P₀ and the Galerkin coarse matrix A₁ = P₀ᵀ·A·P₀ as CSR,
// formed row by row without materializing A, P₀, P₀ᵀ or A·P₀. The
// algebraic AMG setup continues from A₁.
//
// Row I of A₁ covers exactly the 3×3×3 coarse box around I clipped to
// the grid (each box point J is reached through the fine point between I
// and J and the stencil's diagonal), so the row pointers are known in
// closed form and ColIdx/Vals are allocated once at their exact size;
// the kernel checks every row against them.
func geomCoarsen(st []stencilEntry, n int) (Interp, *sparse.CSR, error) {
	if n < 3 {
		return nil, nil, fmt.Errorf("op: grid edge %d too small to coarsen geometrically (need n >= 3)", n)
	}
	g := NewGeomInterp(n)
	nc := g.nc
	rows := g.CoarseRows()
	span := func(c int) int {
		s := 1
		if c > 0 {
			s++
		}
		if c < nc-1 {
			s++
		}
		return s
	}
	a1 := &sparse.CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	row := 0
	for ci := 0; ci < nc; ci++ {
		for cj := 0; cj < nc; cj++ {
			sij := span(ci) * span(cj)
			for ck := 0; ck < nc; ck++ {
				a1.RowPtr[row+1] = a1.RowPtr[row] + sij*span(ck)
				row++
			}
		}
	}
	nnz := a1.RowPtr[rows]
	a1.ColIdx = make([]int, nnz)
	a1.Vals = make([]float64, nnz)

	taps := make([]geomTap, n)
	for f := range taps {
		t := &taps[f]
		c0, w, c1, _, cnt := geomDim(f, nc)
		t.c, t.cnt, t.w = [2]int{c0, c1}, cnt, w
	}
	k := &galerkinKernel{n: n, nc: nc, st: st, taps: taps, a1: a1}
	// Each A₁ entry gathers up to 27 fine rows of up to len(st)·8 products.
	if par.Par(nnz * len(st) * 8) {
		par.Default().Run(rows, k)
	} else {
		k.Do(0, 0, rows)
	}
	return g, a1, nil
}

// Coarsen implements Coarsenable: the 2h trilinear interpolant and the
// Galerkin coarse matrix, matrix-free on the fine side.
func (s *Stencil7) Coarsen() (Interp, *sparse.CSR, error) { return geomCoarsen(lap7Entries, s.n) }

// Coarsen implements Coarsenable.
func (s *Stencil27) Coarsen() (Interp, *sparse.CSR, error) { return geomCoarsen(lap27Entries, s.n) }
