package solve

import (
	"context"
	"math"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// runBody builds the engine a /solve body names (its smoother included)
// and solves the body's right-hand side, with NaN written into b[0] when
// poison is set. Beside the outcome it returns the engine's true relative
// residual of an iterate on that b.
func runBody(t *testing.T, body string, opt amg.Options, poison bool) (Outcome, func(x []float64) float64, error) {
	t.Helper()
	p, err := Parse([]byte(body))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	e, err := Build(Source{Problem: p.Problem, Size: p.Size}, opt, p.Smoother, false)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	b, err := p.RightHandSide(e.LevelSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if poison {
		b[0] = math.NaN()
	}
	out, err := Run(context.Background(), e, p, b, nil)
	return out, func(x []float64) float64 { return e.RelRes(b, x) }, err
}

// TestReportedRelResIsTrueResidual: every solver reports as RelRes the
// residual the engine computes from the iterate it returns, b − A·X
// through the fine operator's Residual and the block-ordered Norm2 over ‖b‖, to
// the last bit. The Krylov solvers compute it at exit; their histories
// stay the recurrence (PCG) and the Arnoldi estimate (FGMRES).
func TestReportedRelResIsTrueResidual(t *testing.T) {
	for _, body := range []string{
		`{"problem":"7pt","size":8,"method":"mult","cycles":12}`,
		`{"problem":"7pt","size":8,"solver":"pcg","tol":1e-10}`,
		`{"problem":"7pt","size":8,"solver":"pcg","tol":1e-10,"maxiter":4}`,
		`{"problem":"7pt","size":8,"solver":"fgmres","method":"afacx","tol":1e-10}`,
		`{"problem":"7pt","size":8,"solver":"fgmres","method":"afacx","tol":1e-10,"restart":3,"maxiter":7}`,
		`{"problem":"7pt","size":8,"mode":"async","method":"multadd","threads":4,"cycles":30}`,
		`{"problem":"7pt","size":8,"mode":"dist","method":"multadd","cycles":30}`,
	} {
		out, relres, err := runBody(t, body, amg.DefaultOptions(), false)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := relres(out.X); out.RelRes != want {
			t.Errorf("%s: reported relres %v, true %v", body, out.RelRes, want)
		}
	}
}

// TestVerdictTable runs every solver into every verdict it can reach, each
// case built by construction: enough work converges; one Krylov iteration
// stalls above 1e-8; ω-Jacobi at ω = 2, the edge of its range, grows a
// cycling residual within 5 cycles, short of 1e10, and one PCG step
// preconditioned by a Mult cycle at ω = 1.8 overshoots past ‖b‖; NaN in b
// diverges, which the Krylov solvers refuse as a breakdown instead. A
// cycling mode has no tolerance, so one cycle that reduces the residual is
// Converged, and FGMRES cannot grow (it minimises the residual over a
// space that holds x = 0), so its over-weighted run stalls.
func TestVerdictTable(t *testing.T) {
	const (
		sync  = `"method":"mult"`
		pcg   = `"solver":"pcg","tol":1e-8`
		gmres = `"solver":"fgmres","method":"afacx","tol":1e-8`
		async = `"mode":"async","method":"multadd","threads":4`
		dist  = `"mode":"dist","method":"multadd"`
	)
	for _, c := range []struct {
		knobs  string
		poison bool
		want   string // a verdict, or "breakdown" for a Krylov error
	}{
		{sync + `,"cycles":40`, false, "converged"},
		{sync + `,"cycles":1`, false, "converged"},
		{sync + `,"cycles":5,"omega":2`, false, "grew"},
		{sync + `,"cycles":40`, true, "diverged"},

		{pcg + `,"maxiter":100`, false, "converged"},
		{pcg + `,"maxiter":1`, false, "stalled"},
		{pcg + `,"maxiter":1,"method":"mult","omega":1.8`, false, "grew"},
		{pcg + `,"maxiter":100`, true, "breakdown"},

		{gmres + `,"maxiter":100`, false, "converged"},
		{gmres + `,"maxiter":1`, false, "stalled"},
		{gmres + `,"maxiter":3,"omega":2`, false, "stalled"},
		{gmres + `,"maxiter":100`, true, "breakdown"},

		{async + `,"cycles":60`, false, "converged"},
		{async + `,"cycles":1`, false, "converged"},
		{async + `,"cycles":5,"omega":2`, false, "grew"},
		{async + `,"cycles":60`, true, "diverged"},

		{dist + `,"cycles":60`, false, "converged"},
		{dist + `,"cycles":1`, false, "converged"},
		{dist + `,"cycles":5,"omega":2`, false, "grew"},
		{dist + `,"cycles":60`, true, "diverged"},
	} {
		body := `{"problem":"7pt","size":8,` + c.knobs + `}`
		out, _, err := runBody(t, body, amg.DefaultOptions(), c.poison)
		got := out.Verdict.String()
		if err != nil {
			got = "breakdown"
		}
		if got != c.want {
			t.Errorf("%s (NaN in b: %v): %s at relres %g (err %v), want %s", body, c.poison, got, out.RelRes, err, c.want)
		}
	}
}

// TestPCGRecurrenceDrift: on a float32-coarse, sparsified hierarchy PCG's
// recurrence residual keeps falling past the level the true residual
// floors at, so at tol 1e-16 the recurrence ends below the tolerance (a
// check on it would say converged) while b − A·x does not: the verdict is
// Stalled, on the residual the solver computed at exit.
func TestPCGRecurrenceDrift(t *testing.T) {
	opt := amg.DefaultOptions()
	opt.CoarsePrecision = op.CoarseFloat32
	opt.Sparsify = true
	const tol = 1e-16
	out, relres, err := runBody(t, `{"problem":"7pt","size":16,"solver":"pcg","tol":1e-16,"maxiter":200}`, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := out.History[len(out.History)-1]
	t.Logf("after %d iterations: recurrence %.3e, true %.3e (gap ×%.1f)", out.Iterations, rec, out.RelRes, out.RelRes/rec)
	if !(rec < tol) || out.RelRes != relres(out.X) || !(out.RelRes > tol) {
		t.Errorf("recurrence %g, reported %g, true %g: want the recurrence below %g and the true residual above it", rec, out.RelRes, relres(out.X), tol)
	}
	if out.Verdict != vec.Stalled {
		t.Errorf("verdict %v, want stalled", out.Verdict)
	}
}
