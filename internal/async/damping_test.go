package async

import (
	"context"
	"math"
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/smoother"
)

func TestDampingPolicyValidation(t *testing.T) {
	s := buildSetup(t, 6, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	bad := []DampingPolicy{
		{Mode: DampFixed},                          // fixed needs an explicit Omega
		{Mode: DampFixed, Omega: -0.5},             // negative
		{Mode: DampFixed, Omega: 1.5},              // > 1
		{Mode: DampFixed, Omega: math.NaN()},       // NaN
		{Mode: DampFixed, Omega: math.Inf(1)},      // Inf
		{Mode: DampAuto, MinOmega: math.NaN()},     // NaN floor
		{Mode: DampAuto, MinOmega: 2},              // floor > 1
		{Mode: DampAuto, Omega: 0.3, MinOmega: .5}, // floor above max
		{Mode: DampAuto, StalenessRef: -1},         // negative δ₀
		{Mode: DampAuto, Tighten: 1.5},             // tighten must shrink
		{Mode: DampAuto, Tighten: math.NaN()},
		{Mode: DampAuto, Relax: 0.5}, // relax must grow
		{Mode: DampAuto, Relax: 64},  // absurd relax
		{Mode: DampMode(99)},         // unknown mode
	}
	for i, p := range bad {
		cfg := Config{Method: engine.Multadd, Threads: 8, MaxCycles: 2, Damping: p}
		if _, err := Solve(context.Background(), s, b, cfg); err == nil {
			t.Errorf("case %d: accepted invalid policy %+v", i, p)
		}
	}
	// Damping is an additive-methods feature.
	cfg := Config{Method: engine.Mult, Threads: 4, MaxCycles: 2,
		Damping: DampingPolicy{Mode: DampFixed, Omega: 0.5}}
	if _, err := Solve(context.Background(), s, b, cfg); err == nil {
		t.Error("accepted damping on Mult")
	}
}

func TestPerturbValidation(t *testing.T) {
	s := buildSetup(t, 6, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	l := s.NumLevels()
	bad := []Perturb{
		{ReadHold: -1},
		{StragglerHold: -2},
		{Stragglers: []int{-1}},
		{Stragglers: []int{l}},
	}
	for i, p := range bad {
		cfg := Config{Method: engine.Multadd, Threads: l, MaxCycles: 2, Perturb: p}
		if _, err := Solve(context.Background(), s, b, cfg); err == nil {
			t.Errorf("case %d: accepted invalid perturb %+v", i, p)
		}
	}
}

func TestPerturbHoldFor(t *testing.T) {
	p := Perturb{ReadHold: 3, Stragglers: []int{1}, StragglerHold: 9}
	if h := p.holdFor(0); h != 3 {
		t.Errorf("holdFor(0) = %d, want 3", h)
	}
	if h := p.holdFor(1); h != 9 {
		t.Errorf("holdFor(1) = %d, want 9", h)
	}
	// Zero StragglerHold defaults to 4×max(ReadHold, 2).
	p = Perturb{Stragglers: []int{2}}
	if h := p.holdFor(2); h != 8 {
		t.Errorf("default straggler hold = %d, want 8", h)
	}
	if h := p.holdFor(0); h != 1 {
		t.Errorf("unperturbed hold = %d, want 1", h)
	}
}

// TestDampedCorrectionWorkerCountBitwise is the worker-count property
// test for the damped correction path: for any team size, the damped
// team correction must be bitwise identical to the serial damped
// reference, exactly as the sync-kernel property tests demand of the
// undamped kernels. Only block-independent smoothers qualify (Jacobi
// variants); block smoothers legitimately change arithmetic with the
// team size.
func TestDampedCorrectionWorkerCountBitwise(t *testing.T) {
	for _, kind := range []smoother.Kind{smoother.WJacobi, smoother.L1Jacobi} {
		s := buildSetup(t, 8, kind)
		l := s.NumLevels()
		n := s.LevelSize(0)
		rfine := grid.RandomRHS(n, 42)
		const omega = 0.375 // exactly representable; scaling is one multiply
		for _, m := range []engine.Method{engine.Multadd, engine.AFACx} {
			// Serial damped reference.
			want := make([][]float64, l)
			w := s.NewCorrWorkspace()
			for k := 0; k < l; k++ {
				want[k] = make([]float64, n)
				s.GridCorrection(m, k, want[k], rfine, omega, w)
			}
			for _, teamSize := range []int{1, 2, 8} {
				rt := &solverState{
					s: s, cfg: Config{Method: m, Threads: teamSize * l, MaxCycles: 1},
					n: n, b: rfine,
				}
				rt.damp = rt.cfg.Damping.resolve(l)
				rt.grids = make([]*gridRun, l)
				for k := 0; k < l; k++ {
					g, err := newGridRun(rt, k, teamSize)
					if err != nil {
						t.Fatalf("%v team %d grid %d: %v", m, teamSize, k, err)
					}
					g.omega = omega
					rt.grids[k] = g
				}
				for k, g := range rt.grids {
					out := runTeamCorrection(g, rfine)
					for i := range out {
						if out[i] != want[k][i] {
							t.Fatalf("%v %v team=%d grid %d: out[%d] = %g, serial %g",
								kind, m, teamSize, k, i, out[i], want[k][i])
						}
					}
				}
			}
		}
	}
}

// runTeamCorrection runs one damped correction with every teammate on
// its own goroutine (the team barriers do the staging) and returns the
// fine-level correction buffer.
func runTeamCorrection(g *gridRun, rfine []float64) []float64 {
	outs := make([][]float64, g.m)
	done := make(chan struct{})
	for tid := 0; tid < g.m; tid++ {
		go func(tid int) {
			outs[tid] = g.computeCorrection(tid, rfine)
			done <- struct{}{}
		}(tid)
	}
	for tid := 0; tid < g.m; tid++ {
		<-done
	}
	return outs[0]
}

// TestFixedDampingSyncMatchesSequential pins the cross-layer damping
// semantics: a synchronous team solve with fixed damping must reproduce
// the engine's deterministic damped cycle (same ω, same arithmetic
// locations), grid for grid, up to reduction rounding.
func TestFixedDampingSyncMatchesSequential(t *testing.T) {
	const omega = 0.5
	for _, m := range []engine.Method{engine.Multadd, engine.AFACx} {
		s := buildSetup(t, 8, smoother.WJacobi)
		b := grid.RandomRHS(s.LevelSize(0), 3)
		const cycles = 8
		_, hist := s.SolveDamped(m, b, cycles, omega)
		res, err := Solve(context.Background(), s, b, Config{
			Method: m, Sync: true, Threads: 2 * s.NumLevels(), MaxCycles: cycles,
			RecordHistory: true,
			Damping:       DampingPolicy{Mode: DampFixed, Omega: omega},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := range hist {
			if diff := math.Abs(hist[i] - res.History[i]); diff > 1e-9*(1+hist[i]) {
				t.Errorf("%v cycle %d: sequential %v vs sync team %v", m, i, hist[i], res.History[i])
			}
		}
		if res.FinalOmega[0] != omega {
			t.Errorf("%v: FinalOmega[0] = %v, want %v", m, res.FinalOmega[0], omega)
		}
	}
}

// stabilisationScenario is one staleness/straggler adversity under
// which the undamped cycle (ω = 1) rolls back while the adaptive policy
// converges — the acceptance criterion's stability-map flips, pinned
// here as -race tests.
type stabilisationScenario struct {
	name    string
	method  engine.Method
	perturb Perturb
	// threadsPerGrid scales the pool (1 = one thread per grid).
	threadsPerGrid int
	cycles         int
}

// stabilisationScenarios are shared with TestStabilisationScenarios and
// the harness shape test; each corresponds to a stability-map cell.
var stabilisationScenarios = []stabilisationScenario{
	{name: "uniform-hold-8", method: engine.Multadd,
		perturb: Perturb{ReadHold: 8}, threadsPerGrid: 1, cycles: 240},
	{name: "straggler-fine-grid", method: engine.Multadd,
		perturb:        Perturb{ReadHold: 2, Stragglers: []int{0}, StragglerHold: 12},
		threadsPerGrid: 1, cycles: 240},
	{name: "oversubscribed-hold-6", method: engine.Multadd,
		perturb: Perturb{ReadHold: 6}, threadsPerGrid: 4, cycles: 240},
	{name: "afacx-hold-8", method: engine.AFACx,
		perturb: Perturb{ReadHold: 8}, threadsPerGrid: 1, cycles: 240},
}

// TestStabilisationScenarios is the acceptance test of the adaptive
// policy: for every scenario the undamped run must roll back (the old
// detect-and-discard defense is all ω = 1 has) and the adaptive run
// must converge.
func TestStabilisationScenarios(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	l := s.NumLevels()
	const tol = 1e-3
	for _, sc := range stabilisationScenarios {
		base := Config{
			Method: sc.method, Res: LocalRes, Write: AtomicWrite,
			Criterion: Criterion1, Threads: sc.threadsPerGrid * l,
			MaxCycles: sc.cycles, Perturb: sc.perturb,
		}
		undamped := base
		undamped.Damping = DampingPolicy{Mode: DampOff, Rollback: true}
		res, err := Solve(context.Background(), s, b, undamped)
		if err != nil {
			t.Fatalf("%s undamped: %v", sc.name, err)
		}
		if !res.RolledBack {
			t.Errorf("%s: undamped run survived (relres %.3e); scenario too mild", sc.name, res.RelRes)
		}
		if res.RolledBack && res.RelRes != 1 {
			t.Errorf("%s: rolled-back RelRes = %v, want 1 (iterate discarded)", sc.name, res.RelRes)
		}

		adaptive := base
		adaptive.Damping = DampingPolicy{Mode: DampAuto, Rollback: true}
		res, err = Solve(context.Background(), s, b, adaptive)
		if err != nil {
			t.Fatalf("%s adaptive: %v", sc.name, err)
		}
		if res.RolledBack || res.Diverged {
			t.Errorf("%s: adaptive run rolled back (tightens %d, relres %.3e)",
				sc.name, res.DampTightens, res.RelRes)
		} else if res.RelRes > tol {
			t.Errorf("%s: adaptive run stalled at relres %.3e, want <= %v", sc.name, res.RelRes, tol)
		}
		if res.DampTightens == 0 {
			t.Errorf("%s: adaptive run never tightened ω under injected staleness", sc.name)
		}
		for k, w := range res.FinalOmega {
			if w <= 0 || w > 1 {
				t.Errorf("%s: FinalOmega[%d] = %v out of (0, 1]", sc.name, k, w)
			}
		}
	}
}

// TestAdaptiveDampingNoPerturbStaysNearUndamped checks the relax side
// of the controller: without injected staleness the adaptive policy
// must not get in the way — the run converges and the factors stay
// high.
func TestAdaptiveDampingNoPerturbStaysNearUndamped(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	l := s.NumLevels()
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Res: LocalRes, Write: AtomicWrite,
		Criterion: Criterion1, Threads: l, MaxCycles: 60,
		Damping: DampingPolicy{Mode: DampAuto, Rollback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.RolledBack {
		t.Fatalf("adaptive run without adversity diverged (relres %.3e)", res.RelRes)
	}
	if res.RelRes > 1e-3 {
		t.Errorf("adaptive run without adversity stalled at %.3e", res.RelRes)
	}
}

// TestDampingObserverSignals checks that a damped adverse run feeds the
// obs layer: ω gauges move below 1000 milli, tighten events count, and
// a rollback increments the rollback counter.
func TestDampingObserverSignals(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	l := s.NumLevels()
	o := obs.New(l)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Res: LocalRes, Write: AtomicWrite,
		Criterion: Criterion1, Threads: l, MaxCycles: 240,
		Perturb:  Perturb{ReadHold: 8},
		Damping:  DampingPolicy{Mode: DampAuto, Rollback: true},
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DampTightens == 0 {
		t.Fatal("no tighten events under ReadHold=8")
	}
	if got := o.DampTightens.Total(); got != res.DampTightens {
		t.Errorf("observer tightens %d, result %d", got, res.DampTightens)
	}
	if got := o.DampRelaxes.Total(); got != res.DampRelaxes {
		t.Errorf("observer relaxes %d, result %d", got, res.DampRelaxes)
	}
	minOmega := int64(1000)
	for k := 0; k < l; k++ {
		if v := o.Omega.Load(k); v < minOmega {
			minOmega = v
		}
	}
	if minOmega >= 1000 {
		t.Errorf("no ω gauge moved below 1000 milli under adversity")
	}

	// An undamped armed run must roll back and count it.
	o2 := obs.New(l)
	res, err = Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Res: LocalRes, Write: AtomicWrite,
		Criterion: Criterion1, Threads: l, MaxCycles: 240,
		Perturb:  Perturb{ReadHold: 8},
		Damping:  DampingPolicy{Mode: DampOff, Rollback: true},
		Observer: o2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack {
		t.Fatal("undamped armed run survived ReadHold=8")
	}
	if o2.Rollbacks.Load() != 1 {
		t.Errorf("rollback counter = %d, want 1", o2.Rollbacks.Load())
	}
}

// TestStalenessRecordedAfterApply pins the satellite fix: δ is computed
// once, after the correction is applied, and the same value feeds the
// histogram — so with a single grid team correcting alone, every δ is
// exactly 0 (no foreign corrections between read and write), and under
// a hold the recorded δ reflects the held reads.
func TestStalenessRecordedAfterApply(t *testing.T) {
	s := buildSetup(t, 8, smoother.WJacobi)
	b := grid.RandomRHS(s.LevelSize(0), 1)
	l := s.NumLevels()
	o := obs.New(l)
	res, err := Solve(context.Background(), s, b, Config{
		Method: engine.Multadd, Res: LocalRes, Write: AtomicWrite,
		Criterion: Criterion1, Threads: l, MaxCycles: 30,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Staleness.Snapshot()
	var total int
	for _, c := range res.Corrections {
		total += c
	}
	if snap.Count != int64(total) {
		t.Errorf("staleness observations %d, corrections %d (must match one-to-one)",
			snap.Count, total)
	}
}
