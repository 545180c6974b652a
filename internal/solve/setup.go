package solve

import (
	"flag"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/sparse"
)

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
