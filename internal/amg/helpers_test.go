package amg

import (
	"slices"

	"asyncmg/internal/op"
	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// BuildInterpolation constructs the untruncated prolongation matrix P
// (n × nc) for the given splitting using the requested scheme.
func BuildInterpolation(a *sparse.CSR, s *Strength, types []PointType, typ InterpType) *sparse.CSR {
	return BuildInterpolationFunc(a, s, types, typ, nil)
}

// BuildInterpolationFunc is BuildInterpolation with the unknown-approach
// function map (see interpolate).
func BuildInterpolationFunc(a *sparse.CSR, s *Strength, types []PointType, typ InterpType, fun []int) *sparse.CSR {
	p, _ := interpolate(a, s, types, typ, fun, 0)
	return p
}

// DirectInterpolation is direct interpolation on its own: multipass pass
// 1 (directInterpKernel) over every row, untruncated.
func DirectInterpolation(a *sparse.CSR, s *Strength, types []PointType, fun []int) *sparse.CSR {
	cidx, nc := coarseIndex(types)
	strong, rowCap := strongMask(a, s, types)
	st := newStagedRows[int](nc, rowCap)
	par.Run(a.NNZ(), a.Rows, &directInterpKernel[int]{a: a, strong: strong, types: types, cidx: cidx, fun: fun, st: st, done: make([]bool, a.Rows)})
	return st.toCSR(0)
}

// TruncateInterp returns P with every row truncated as truncateRow
// documents; p itself is left as it is.
func TruncateInterp(p *sparse.CSR, maxPerRow int) *sparse.CSR {
	cols, vals := slices.Clone(p.ColIdx), slices.Clone(p.Vals)
	st := &stagedRows[int]{nc: p.Cols, cols: make([][]int, p.Rows), vals: make([][]float64, p.Rows)}
	for i := range st.cols {
		st.cols[i] = cols[p.RowPtr[i]:p.RowPtr[i+1]]
		st.vals[i] = vals[p.RowPtr[i]:p.RowPtr[i+1]]
	}
	return st.toCSR(maxPerRow)
}

// levelCSR returns the float64/uint32 matrices behind a level
// BuildWithStats made, widened to int: A, and P and Pᵀ (nil on the
// coarsest level).
func levelCSR(lev Level) (a, p, pt *sparse.CSR) {
	a = sparse.Convert[float64, int](op.AsCSR(lev.Op))
	if t, ok := lev.Itp.(*op.CSRInterp[float64, uint32]); ok {
		p, pt = sparse.Convert[float64, int](t.P), sparse.Convert[float64, int](t.PT)
	}
	return a, p, pt
}

// Build runs the AMG setup phase on the fine-grid matrix a.
func Build(a *sparse.CSR, opt Options) (*Hierarchy, error) {
	h, _, err := BuildWithStats(a, opt)
	return h, err
}

// StrengthGraph is StrengthGraphFunc for a scalar problem.
func StrengthGraph(a *sparse.CSR, theta float64) *Strength {
	return StrengthGraphFunc(a, theta, nil)
}
