package solve

import (
	"flag"
	"fmt"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/op"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// Source is the operator an engine is built from: the family Problem at
// Size, or the parsed Matrix. Problem also names the family setup rule,
// so a caller that generated the family's matrix passes both.
type Source struct {
	Problem string
	Size    int
	Matrix  *sparse.CSR
}

// Build runs the AMG setup of src under the caller's options and smoother
// and the family setup rule (problem.Options). With matrixFree, a family
// with a stencil form (7pt, 27pt) is built from it; any other falls back
// to its assembled matrix. A matrix must be square, well formed and
// finite (sparse.Matrix.Validate): a NaN entry is refused here, not
// "solved" to an infinite residual.
func Build(src Source, opt amg.Options, smo smoother.Config, matrixFree bool) (*engine.Engine, error) {
	opt = problem.Options(src.Problem, opt)
	a := src.Matrix
	if a == nil && matrixFree {
		if fine, ok := problem.Operator(src.Problem, src.Size); ok {
			return engine.NewOperator(fine, opt, smo)
		}
	}
	var err error
	switch {
	case a == nil:
		a, err = problem.Build(src.Problem, src.Size)
	case a.Rows != a.Cols:
		err = fmt.Errorf("matrix is %dx%d, want square", a.Rows, a.Cols)
	default:
		err = a.Validate()
	}
	if err != nil {
		return nil, err
	}
	return engine.New(a, opt, smo)
}

// SetupFlags are the hierarchy-construction flags mgsolve and mgserve
// share: how the fine level is represented and how the coarse levels are
// stored.
type SetupFlags struct {
	MatrixFree    bool
	F32Coarse     bool
	Sparsify      bool
	SparsifyTheta float64
	SparsifyMode  string
}

// Bind registers the setup flags on fs.
func (f *SetupFlags) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&f.MatrixFree, "matrix-free", false, "build the structured stencil problems (7pt, 27pt) matrix-free: the fine level is applied from the stencil and never materialized as CSR")
	fs.BoolVar(&f.F32Coarse, "f32-coarse", false, "store coarse operators and interpolants in float32")
	fs.BoolVar(&f.Sparsify, "sparsify", false, "sparsify coarse operators after RAP (strength-aware dropping with the per-level convergence guard)")
	fs.Float64Var(&f.SparsifyTheta, "sparsify-theta", 0.25, "drop threshold for -sparsify")
	fs.StringVar(&f.SparsifyMode, "sparsify-mode", "lump", "compensation mode for -sparsify: lump, rescale, drop")
}

// AMG returns amg.DefaultOptions with the coarse-level flags applied, or
// nil when no coarse-level flag is set. The sparsify knobs are inert
// without -sparsify.
func (f *SetupFlags) AMG() (*amg.Options, error) {
	if !f.F32Coarse && !f.Sparsify {
		return nil, nil
	}
	opt := amg.DefaultOptions()
	if f.F32Coarse {
		opt.CoarsePrecision = op.CoarseFloat32
	}
	if f.Sparsify {
		mode, err := sparse.ParseSparsifyMode(f.SparsifyMode)
		if err != nil {
			return nil, err
		}
		opt.Sparsify = amg.SparsifyOptions{Theta: f.SparsifyTheta, Mode: mode}
	}
	return &opt, nil
}
