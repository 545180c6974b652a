package op

import (
	"fmt"
	"math/bits"

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

// geomTap is geomDim's result for one fine index: the cnt coarse indices
// it interpolates from and their common 1-D weight.
type geomTap struct {
	c   [2]int
	cnt int
	w   float64
}

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
	taps := make([]geomTap, s.n)
	for f := range taps {
		t := &taps[f]
		c0, w, c1, _, cnt := geomDim(f, g.nc)
		t.c, t.cnt, t.w = [2]int{c0, c1}, cnt, w
	}
	k := &galerkin{fine: s, taps: taps}
	return g, newStencil(g.nc, k.row), nil
}

// galerkin forms rows of A₁ = P₀ᵀ·A·P₀ for the fine stencil A and the
// trilinear P₀ (A and A₁ stand for any two consecutive geometric levels),
// one coarse row I at a time:
//
//   - I's fine neighbours f (its Pᵀ row) are walked in ascending order
//     with the weights ApplyTRange uses;
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
