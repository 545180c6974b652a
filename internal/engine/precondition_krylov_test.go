package engine_test

import (
	"context"
	"math"
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
)

// oraclePreconditioner applies engine.PreconditionOracle: z zeroed, then
// the solver's cycle from it.
type oraclePreconditioner struct {
	s           *engine.Engine
	m           engine.Method
	symmetrized bool
	w           *engine.Workspace
}

func (p oraclePreconditioner) Precondition(z, r []float64) {
	engine.PreconditionOracle(p.s, p.m, p.symmetrized, z, r, p.w)
}

// TestKrylovHistoriesMatchPreconditionOracle runs PCG and FGMRES once with
// the zero-guess krylov.MGPreconditioner and once with the oracle on every
// preconditioner engine and method: residual histories, iterates and
// errors are bitwise equal. PCG on AFACx (not SPD) is compared as it
// ends, breakdown or not.
func TestKrylovHistoriesMatchPreconditionOracle(t *testing.T) {
	for _, tc := range engine.PreconditionEngines(t) {
		t.Run(tc.Name, func(t *testing.T) {
			s := tc.Engine
			a := s.Ops[0]
			b := grid.RandomRHS(a.Rows(), 57)
			for _, f := range []struct {
				m           engine.Method
				symmetrized bool
			}{
				{engine.Mult, false},
				{engine.Multadd, false},
				{engine.Multadd, true},
				{engine.AFACx, false},
				{engine.BPX, false},
			} {
				for _, sv := range []struct {
					name  string
					solve func(krylov.Options) (krylov.Result, error)
				}{
					{"pcg", func(opt krylov.Options) (krylov.Result, error) { return krylov.PCG(a, b, opt) }},
					{"fgmres", func(opt krylov.Options) (krylov.Result, error) {
						return krylov.FGMRESCtx(context.Background(), a, b, opt)
					}},
				} {
					opt := krylov.Options{Tol: 1e-8, MaxIter: 60}
					p := krylov.NewMGPreconditioner(s, f.m)
					p.Symmetrized = f.symmetrized
					opt.M = p
					got, gotErr := sv.solve(opt)
					p.Release()

					w := s.AcquireWorkspace()
					opt.M = oraclePreconditioner{s, f.m, f.symmetrized, w}
					want, wantErr := sv.solve(opt)
					s.ReleaseWorkspace(w)

					name := sv.name + "/" + f.m.String()
					if f.symmetrized {
						name += "-symmetrized"
					}
					if gotErr != wantErr {
						t.Errorf("%s: error %v, oracle %v", name, gotErr, wantErr)
					}
					if len(got.History) != len(want.History) {
						t.Fatalf("%s: %d history entries, oracle %d", name, len(got.History), len(want.History))
					}
					for i := range got.History {
						if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
							t.Fatalf("%s: history[%d] = %v, oracle %v", name, i, got.History[i], want.History[i])
						}
					}
					for i := range got.X {
						if got.X[i] != want.X[i] {
							t.Fatalf("%s: x[%d] = %v, oracle %v", name, i, got.X[i], want.X[i])
						}
					}
				}
			}
		})
	}
}
