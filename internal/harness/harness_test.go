package harness

import (
	"bytes"
	"strings"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/model"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
	"asyncmg/internal/sparse/sparsetest"
	"asyncmg/internal/vec"
)

func TestBuildProblemAll(t *testing.T) {
	sizes := map[string]int{
		problem.Laplace7pt:  6,
		problem.Laplace27pt: 6,
		problem.LaplaceFEM:  6,
		problem.Elasticity:  3,
	}
	for _, name := range problem.Paper() {
		a, err := problem.Build(name, sizes[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !sparsetest.IsSymmetric(a, 1e-9) {
			t.Errorf("%s not symmetric", name)
		}
	}
}

func TestBuildProblemErrors(t *testing.T) {
	if _, err := problem.Build("nope", 8); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := problem.Build(problem.Laplace7pt, 1); err == nil {
		t.Error("size 1 accepted")
	}
}

func TestDefaultOmega(t *testing.T) {
	if problem.DefaultOmega(problem.Laplace7pt) != 0.9 || problem.DefaultOmega(problem.Laplace27pt) != 0.9 {
		t.Error("stencil omega should be 0.9")
	}
	if problem.DefaultOmega(problem.LaplaceFEM) != 0.5 || problem.DefaultOmega(problem.Elasticity) != 0.5 {
		t.Error("FEM omega should be 0.5")
	}
}

func TestTableIMethodsCount(t *testing.T) {
	ms := TableIMethods()
	if len(ms) != 12 {
		t.Fatalf("Table I has %d methods, want 12", len(ms))
	}
	if ms[0].Label != "sync Mult" {
		t.Errorf("first method %q", ms[0].Label)
	}
	if ms[11].Label != "r-Multadd, atomic-write, local-res" {
		t.Errorf("last method %q", ms[11].Label)
	}
}

func smallProtocol() Protocol {
	return Protocol{Tau: 1e-6, CycleStep: 10, CycleMax: 120, Runs: 2, Threads: 8, Seed0: 1}
}

func TestTimeToTolSyncMult(t *testing.T) {
	s, err := paperEngine(solve.Source{Problem: problem.Laplace7pt, Size: 8}, 1, smoother.WJacobi)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProtocol()
	r := p.TimeToTol(s, TableIMethods()[0])
	if r.Verdict != vec.Converged {
		t.Fatalf("sync Mult: %v", r.Verdict)
	}
	if r.Cycles <= 0 || r.Cycles%p.CycleStep != 0 {
		t.Errorf("cycles = %d", r.Cycles)
	}
	if r.Seconds <= 0 {
		t.Error("no time measured")
	}
	if r.Corrects < float64(r.Cycles) {
		t.Errorf("corrects %v < cycles %d", r.Corrects, r.Cycles)
	}
}

func TestTimeToTolAsyncLocalBeatsGlobalInCycles(t *testing.T) {
	// Paper: local-res needs fewer V-cycles than global-res (most cases).
	s, err := paperEngine(solve.Source{Problem: problem.Laplace7pt, Size: 8}, 1, smoother.WJacobi)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProtocol()
	ms := TableIMethods()
	local := p.TimeToTol(s, ms[8])  // Multadd, lock-write, local-res
	global := p.TimeToTol(s, ms[7]) // Multadd, lock-write, global-res
	if local.Verdict >= vec.Grew {
		t.Fatal("local-res diverged")
	}
	if global.Verdict < vec.Grew && global.Cycles < local.Cycles {
		t.Logf("note: global-res %d cycles < local-res %d on this run (scheduling-dependent)",
			global.Cycles, local.Cycles)
	}
}

func TestMeanRelResDecreasesWithCycles(t *testing.T) {
	s, err := paperEngine(solve.Source{Problem: problem.Laplace7pt, Size: 8}, 1, smoother.WJacobi)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProtocol()
	m := TableIMethods()[8]
	r5, d5 := p.MeanRelRes(s, m, 5)
	r20, d20 := p.MeanRelRes(s, m, 20)
	if d5 || d20 {
		t.Fatal("diverged")
	}
	if r20 >= r5 {
		t.Errorf("relres did not decrease: %g -> %g", r5, r20)
	}
}

func TestFormatTT(t *testing.T) {
	for v, want := range map[vec.Verdict]string{vec.Diverged: "†", vec.Grew: "†", vec.Stalled: ">max"} {
		if !strings.Contains(FormatTT(TTResult{Verdict: v}), want) {
			t.Errorf("%v: marker %q missing", v, want)
		}
	}
	s := FormatTT(TTResult{Seconds: 0.5, Corrects: 42, Cycles: 30})
	if !strings.Contains(s, "0.5000") || !strings.Contains(s, "42") || !strings.Contains(s, "30") {
		t.Errorf("format: %q", s)
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := Fig1Config{
		Problem: problem.Laplace27pt, Method: engine.Multadd,
		Sizes: []int{6, 8}, Alphas: []float64{0.1, 0.9},
		Updates: 10, Runs: 2, Agg: 1,
	}
	if err := Fig1(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 2 header comments + column header + 2 size rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "alpha=0.1") {
		t.Errorf("missing alpha column: %s", lines[2])
	}
	if !strings.Contains(lines[2], "relax/run") || !strings.Contains(lines[2], "stale-p50") {
		t.Errorf("missing metrics columns: %s", lines[2])
	}
	// The relaxation column must reconcile with the sweep's correction
	// counts: every model run does Updates corrections on each of the
	// hierarchy's grids, so relax/run == Updates * levels — which for
	// these sizes is a round multiple of Updates (10).
	if !strings.Contains(lines[3], "20.0") && !strings.Contains(lines[3], "30.0") {
		t.Errorf("relax/run not a multiple of Updates: %s", lines[3])
	}
}

func TestFig2Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := Fig2Config{
		Problem: problem.Laplace27pt, Method: engine.AFACx, Variant: model.FullAsyncResidual,
		Sizes: []int{6}, Deltas: []int{0, 4}, Alpha: 0.1,
		Updates: 8, Runs: 2, Agg: 1,
	}
	if err := Fig2(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delta=4") {
		t.Errorf("missing delta column:\n%s", buf.String())
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	p := smallProtocol()
	p.Runs = 1
	cfg := Fig4Config{
		Problem: problem.Laplace7pt, Sizes: []int{6, 8},
		Smoothers: []smoother.Kind{smoother.WJacobi},
		Cycles:    10, Protocol: p, Agg: 1,
	}
	if err := Fig4(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sync Mult") || !strings.Contains(out, "local-res") {
		t.Errorf("missing method columns:\n%s", out)
	}
	// Two data rows with increasing row counts.
	if !strings.Contains(out, "216") || !strings.Contains(out, "512") {
		t.Errorf("missing size rows:\n%s", out)
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := Table1Config{
		Problem: problem.Laplace7pt, Size: 8,
		Smoothers: []smoother.Kind{smoother.WJacobi},
		Protocol:  Protocol{Tau: 1e-5, CycleStep: 20, CycleMax: 120, Runs: 1, Threads: 8, Seed0: 1},
		Agg:       1,
	}
	if err := Table1(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range TableIMethods() {
		if !strings.Contains(out, m.Label) {
			t.Errorf("missing row %q", m.Label)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := Fig6Config{
		Problem: problem.Laplace7pt, Size: 8,
		Threads:  []int{8},
		Protocol: Protocol{Tau: 1e-5, CycleStep: 20, CycleMax: 120, Runs: 1, Threads: 8, Seed0: 1},
		Agg:      1,
	}
	if err := Fig6(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "gsync/cyc") {
		t.Errorf("missing sync-point annotation:\n%s", out)
	}
}

func TestMean(t *testing.T) {
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean broken")
	}
	if mean(nil) != 0 {
		t.Error("mean(nil) should be 0")
	}
}

func TestDefaultConfigsAreSane(t *testing.T) {
	if p := DefaultProtocol(); p.Tau != 1e-9 || p.CycleMax < p.CycleStep || p.Runs < 1 || p.Threads < 1 {
		t.Errorf("DefaultProtocol: %+v", p)
	}
	if c := DefaultFig1(engine.Multadd); len(c.Sizes) == 0 || len(c.Alphas) == 0 || c.Updates != 20 {
		t.Errorf("DefaultFig1: %+v", c)
	}
	if c := DefaultFig2(engine.AFACx, model.FullAsyncResidual); len(c.Deltas) == 0 || c.Alpha != 0.1 {
		t.Errorf("DefaultFig2: %+v", c)
	}
	if c := DefaultFig4(problem.Laplace7pt); c.Cycles != 20 || c.Agg != 1 {
		t.Errorf("DefaultFig4: %+v", c)
	}
	if c := DefaultTable1(problem.Laplace7pt); c.Agg != 2 || len(c.Smoothers) != 4 {
		t.Errorf("DefaultTable1(7pt): %+v", c)
	}
	// Elasticity overrides: longer budget, relaxed tolerance, no
	// aggressive coarsening.
	if c := DefaultTable1(problem.Elasticity); c.Agg != 0 || c.Protocol.Tau != 1e-6 || c.Protocol.CycleMax < 400 {
		t.Errorf("DefaultTable1(elasticity): %+v", c)
	}
	if c := DefaultFig6(problem.Laplace27pt); len(c.Threads) == 0 {
		t.Errorf("DefaultFig6: %+v", c)
	}
	// Table I and Figure 6 measure elasticity under one protocol, at
	// size 4; Figure 6 runs FEM Laplace at size 10 without aggressive
	// coarsening, and so does Figure 5 at sizes 6, 8, 10.
	t1, f6 := DefaultTable1(problem.Elasticity), DefaultFig6(problem.Elasticity)
	if f6.Agg != 0 || f6.Protocol.Tau != 1e-6 || f6.Protocol.CycleMax != 600 || f6.Size != 4 ||
		f6.Agg != t1.Agg || f6.Protocol.Tau != t1.Protocol.Tau || f6.Protocol.CycleMax != t1.Protocol.CycleMax ||
		f6.Protocol.CycleStep != t1.Protocol.CycleStep || f6.Size != t1.Size {
		t.Errorf("elasticity protocols differ: Table I %+v, Figure 6 %+v", t1, f6)
	}
	if c := DefaultFig6(problem.LaplaceFEM); c.Size != 10 || c.Agg != 0 {
		t.Errorf("DefaultFig6(mfem-laplace): %+v", c)
	}
	if c := DefaultFig5(); c.Problem != problem.LaplaceFEM || c.Agg != 0 || len(c.Sizes) != 3 || c.Sizes[0] != 6 || c.Sizes[2] != 10 {
		t.Errorf("DefaultFig5: %+v", c)
	}
	// Elasticity paper setup enables the unknown approach.
	if o := problem.Options(problem.Elasticity, amg.DefaultOptions()); o.NumFunctions != 3 {
		t.Errorf("problem.Options(elasticity) NumFunctions = %d", o.NumFunctions)
	}
	if o := problem.Options(problem.Laplace7pt, amg.DefaultOptions()); o.NumFunctions != 0 {
		t.Errorf("problem.Options(7pt) NumFunctions = %d", o.NumFunctions)
	}
}

func TestFaultSweepSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultFault()
	cfg.Size = 8
	cfg.Updates = 20
	cfg.DropRates = []float64{0.10}
	if err := FaultSweep(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"drop=0.10", "crash w1@5", "dead-coarse", "retired"} {
		if !strings.Contains(out, want) {
			t.Errorf("fault sweep output missing %q:\n%s", want, out)
		}
	}
	// Every scenario row must report a residual well below 1: the sweep's
	// whole point is that the solver survives these regimes.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+7 { // comment + column header + 7 scenario rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for _, line := range lines[2:] {
		if strings.Contains(line, "e+") || strings.Contains(line, "†") {
			t.Errorf("scenario did not converge: %s", line)
		}
	}
}
