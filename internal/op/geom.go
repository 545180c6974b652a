package op

import (
	"fmt"
	"sort"

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

// rowEnumerator yields a row's (column, value) entries; the stencils
// implement it so setup-time sparse products can consume them without a
// materialized matrix.
type rowEnumerator interface {
	Rows() int
	enumerateRow(r int, fn func(col int, val float64))
}

func (s *Stencil7) enumerateRow(r int, fn func(col int, val float64)) {
	n := s.n
	nn := n * n
	i, j, k := r/nn, (r%nn)/n, r%n
	if i > 0 {
		fn(r-nn, lap7Off)
	}
	if j > 0 {
		fn(r-n, lap7Off)
	}
	if k > 0 {
		fn(r-1, lap7Off)
	}
	fn(r, lap7Diag)
	if k < n-1 {
		fn(r+1, lap7Off)
	}
	if j < n-1 {
		fn(r+n, lap7Off)
	}
	if i < n-1 {
		fn(r+nn, lap7Off)
	}
}

func (s *Stencil27) enumerateRow(r int, fn func(col int, val float64)) {
	n := s.n
	nn := n * n
	i, j, k := r/nn, (r%nn)/n, r%n
	for di := -1; di <= 1; di++ {
		ii := i + di
		if ii < 0 || ii >= n {
			continue
		}
		for dj := -1; dj <= 1; dj++ {
			jj := j + dj
			if jj < 0 || jj >= n {
				continue
			}
			base := (ii*n + jj) * n
			for dk := -1; dk <= 1; dk++ {
				kk := k + dk
				if kk < 0 || kk >= n {
					continue
				}
				c := base + kk
				if c == r {
					fn(c, lap27Diag)
				} else {
					fn(c, lap27Off)
				}
			}
		}
	}
}

// mulEnumCSR computes the sparse product A·P where A is given by row
// enumeration (a stencil) and P is CSR, using a generation-stamped
// marker/accumulator pair per row. Setup-time only.
func mulEnumCSR(a rowEnumerator, p *sparse.CSR) *sparse.CSR {
	rows := a.Rows()
	out := &sparse.CSR{Rows: rows, Cols: p.Cols, RowPtr: make([]int, rows+1)}
	marker := make([]int, p.Cols)
	acc := make([]float64, p.Cols)
	for i := range marker {
		marker[i] = -1
	}
	cols := make([]int, 0, 64)
	for i := 0; i < rows; i++ {
		cols = cols[:0]
		a.enumerateRow(i, func(j int, v float64) {
			for q := p.RowPtr[j]; q < p.RowPtr[j+1]; q++ {
				c := p.ColIdx[q]
				if marker[c] != i {
					marker[c] = i
					acc[c] = 0
					cols = append(cols, c)
				}
				acc[c] += v * p.Vals[q]
			}
		})
		sort.Ints(cols)
		for _, c := range cols {
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, acc[c])
		}
		out.RowPtr[i+1] = len(out.Vals)
	}
	return out
}

// geomCoarsen builds the first (geometric) coarsening of a structured
// stencil operator: the trilinear interpolant P₀ and the Galerkin coarse
// matrix A₁ = P₀ᵀ (A P₀) as materialized CSR, without ever materializing
// the fine matrix. The algebraic AMG setup continues from A₁.
func geomCoarsen(a rowEnumerator, n int) (Interp, *sparse.CSR, error) {
	if n < 3 {
		return nil, nil, fmt.Errorf("op: grid edge %d too small to coarsen geometrically (need n >= 3)", n)
	}
	g := NewGeomInterp(n)
	p := g.CSR()
	ap := mulEnumCSR(a, p)
	a1 := sparse.MatMul(p.Transpose(), ap)
	return g, a1, nil
}

// Coarsen implements Coarsenable: the 2h trilinear interpolant and the
// Galerkin coarse matrix, matrix-free on the fine side.
func (s *Stencil7) Coarsen() (Interp, *sparse.CSR, error) { return geomCoarsen(s, s.n) }

// Coarsen implements Coarsenable.
func (s *Stencil27) Coarsen() (Interp, *sparse.CSR, error) { return geomCoarsen(s, s.n) }
