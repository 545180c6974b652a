package amg

import (
	"slices"

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
	p, _ := interpolate(a, s, types, typ, fun, 0, 0)
	return p
}

// TruncateInterp returns P with every row truncated as truncateRow
// documents; p itself is left as it is.
func TruncateInterp(p *sparse.CSR, relTol float64, maxPerRow int) *sparse.CSR {
	cols, vals := slices.Clone(p.ColIdx), slices.Clone(p.Vals)
	st := &stagedRows{nc: p.Cols, cols: make([][]int, p.Rows), vals: make([][]float64, p.Rows)}
	for i := range st.cols {
		st.cols[i] = cols[p.RowPtr[i]:p.RowPtr[i+1]]
		st.vals[i] = vals[p.RowPtr[i]:p.RowPtr[i+1]]
	}
	return st.toCSR(relTol, maxPerRow)
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
