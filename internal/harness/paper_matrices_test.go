package harness

import (
	"context"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
	"asyncmg/internal/vec"
)

// paperMatrices are the four test sets at the size the recorded
// sparsification and Krylov tables used (EXPERIMENTS.md): 2 160 to 4 096
// rows, three- and four-level hierarchies. Elasticity DOFs grow 3× faster,
// so its mesh stays smaller.
var paperMatrices = []struct {
	problem string
	size    int
}{
	{problem.Laplace7pt, 16},
	{problem.Laplace27pt, 16},
	{problem.LaplaceFEM, 16},
	{problem.Elasticity, 5},
}

// itersTo returns the first cycle index whose relative residual is at or
// below tau, or len(hist) when the target was not reached.
func itersTo(hist []float64, tau float64) int {
	for i, r := range hist {
		if r <= tau {
			return i
		}
	}
	return len(hist)
}

// TestSparsifyPaperMatrices pins what guarded coarse-operator
// sparsification buys on the paper's matrices at the setup strength
// threshold: the total coarse-level nonzeros exactly (26 490 → 18 606,
// the EXPERIMENTS.md table; a count, so any change to the drop rule, the
// lumping or the guard shows), no matrix paying more than one extra
// V(1,1) cycle to 1e-6 for it, and the elasticity system — where
// scalar-strength dropping is unsafe — handed back untouched by the guard.
func TestSparsifyPaperMatrices(t *testing.T) {
	const tau, maxCycles = 1e-6, 800
	before, after := 0, 0
	for _, tc := range paperMatrices {
		src := solve.Source{Problem: tc.problem, Size: tc.size}
		golden, err := paperEngine(src, 1, smoother.WJacobi)
		if err != nil {
			t.Fatal(err)
		}
		opt := amg.DefaultOptions()
		opt.Sparsify = true
		sparsified, err := solve.Build(src, opt, golden.Cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		// Coarse nnz over every level below the finest; the coarsest is
		// never a candidate but counts, so the reduction is over all of them.
		for k := 1; k < golden.NumLevels(); k++ {
			before += golden.H.Levels[k].Op.NNZEquivalent()
			after += sparsified.H.Levels[k].Op.NNZEquivalent()
		}

		b := grid.RandomRHS(golden.LevelSize(0), 11)
		_, gHist := golden.Solve(engine.Mult, b, maxCycles)
		_, sHist := sparsified.Solve(engine.Mult, b, maxCycles)
		gIters, sIters := itersTo(gHist, tau), itersTo(sHist, tau)
		if gIters > maxCycles {
			t.Errorf("%s: unsparsified cycling did not reach %g in %d cycles; the comparison is capped, not measured",
				tc.problem, tau, maxCycles)
		}
		if sIters > gIters+1 {
			t.Errorf("%s: %d cycles to %g sparsified, %d unsparsified (limit +1)", tc.problem, sIters, tau, gIters)
		}

		st := sparsified.Setup
		if tc.problem != problem.Elasticity {
			if st.SparsifyFallbacks != 0 || st.DroppedNNZ() == 0 {
				t.Errorf("%s: %d levels reverted, %d nnz dropped; want a clean reduction",
					tc.problem, st.SparsifyFallbacks, st.DroppedNNZ())
			}
			continue
		}
		candidates := 0
		for _, ls := range st.SparsifyLevels {
			if ls.Skipped {
				continue
			}
			candidates++
			if !ls.Reverted || ls.NNZAfter != ls.NNZBefore {
				t.Errorf("elasticity level %d: reverted=%v nnz %d -> %d, want the guard to restore it",
					ls.Level, ls.Reverted, ls.NNZBefore, ls.NNZAfter)
			}
		}
		if candidates != 2 || st.SparsifyFallbacks != candidates {
			t.Errorf("elasticity: %d candidate levels, %d reverted, want 2 and 2", candidates, st.SparsifyFallbacks)
		}
		if sIters != gIters {
			t.Errorf("elasticity: fully reverted hierarchy took %d cycles, unsparsified %d", sIters, gIters)
		}
	}
	if before != 26490 || after != 18606 {
		t.Errorf("total coarse nnz %d -> %d, want 26490 -> 18606", before, after)
	}
}

// TestKrylovOnPaperMatrices pins the two iteration-count claims of the
// Krylov subsystem. On every paper matrix Mult-preconditioned PCG reaches
// 1e-6 in no more iterations than plain Mult cycling. On upwind
// convection-diffusion at β = 1024 plain cycling is still above 1e-8 after
// 100 cycles while Multadd-preconditioned FGMRES gets there inside the
// same budget.
func TestKrylovOnPaperMatrices(t *testing.T) {
	const tau, maxIter = 1e-6, 800
	for _, tc := range paperMatrices {
		s, err := paperEngine(solve.Source{Problem: tc.problem, Size: tc.size}, 1, smoother.WJacobi)
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(s.LevelSize(0), 11)
		_, hist := s.Solve(engine.Mult, b, maxIter)

		p := krylov.NewMGPreconditioner(s, engine.Mult)
		ko := krylov.DefaultOptions()
		ko.Tol, ko.MaxIter, ko.M = tau, maxIter, p
		res, err := krylov.PCG(s.Ops[0], b, ko)
		p.Release()
		if err != nil {
			t.Fatalf("%s: pcg: %v", tc.problem, err)
		}
		if cyc := itersTo(hist, tau); res.Verdict != vec.Converged || res.Iterations > cyc {
			t.Errorf("%s: pcg %v in %d iterations, plain cycling needs %d",
				tc.problem, res.Verdict, res.Iterations, cyc)
		}
	}

	const cdTau, cdBudget = 1e-8, 100
	a := grid.ConvectionDiffusion7pt(16, 1024)
	s, err := paperEngine(solve.Source{Problem: problem.ConvDiff, Matrix: a}, 1, smoother.WJacobi)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(a.Rows, 11)
	_, hist := s.Solve(engine.Mult, b, cdBudget)
	if last := hist[len(hist)-1]; last <= cdTau {
		t.Errorf("conv-diff: plain cycling reached %g in %d cycles; the stall premise no longer holds", last, cdBudget)
	}
	p := krylov.NewMGPreconditioner(s, engine.Multadd)
	defer p.Release()
	ko := krylov.DefaultOptions()
	ko.Tol, ko.MaxIter, ko.M = cdTau, cdBudget, p
	res, err := krylov.FGMRESCtx(context.Background(), s.Ops[0], b, ko)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != vec.Converged {
		t.Errorf("conv-diff: fgmres at relres %g after %d iterations, want converged", res.RelRes, res.Iterations)
	}
}
