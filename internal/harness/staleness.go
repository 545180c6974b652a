package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
)

// StalenessConfig parameterizes the staleness sweep: a grid of
// asynchronous additive solves crossing injected read delay, straggler
// grids and oversubscribed thread pools against the damping policies,
// classifying every cell into a stability outcome. The sweep is the
// verification harness for the adaptive damping controller; mgbench
// -exp staleness -out DIR writes its stability map to DIR/staleness.json.
type StalenessConfig struct {
	Problem string
	Size    int
	// Cycles is each grid's correction budget per solve.
	Cycles int
	// Holds is the uniform read-hold sweep: a hold of h makes every grid
	// apply h corrections from the same stale read.
	Holds []int
	// StragglerHold is the read-hold of the straggler rows' slow grid
	// (the finest grid; the rest run at hold 2).
	StragglerHold int
	// Oversubscribe is the threads-per-grid factor of the oversubscribed
	// rows (the uniform rows run one thread per grid).
	Oversubscribe int
	// Tol is the convergence threshold on the final relative residual.
	Tol  float64
	Seed int64
	// FixedOmega is the constant factor of the fixed-damping policy
	// column.
	FixedOmega float64
	// Observer, when non-nil, accumulates every solve's staleness
	// histograms, ω gauges and damping counters under one registry.
	Observer *obs.Observer
}

// DefaultStaleness mirrors the stabilisation acceptance scenarios at a
// scale that runs in seconds.
func DefaultStaleness() StalenessConfig {
	return StalenessConfig{
		Problem:       problem.Laplace7pt,
		Size:          8,
		Cycles:        240,
		Holds:         []int{1, 4, 8},
		StragglerHold: 12,
		Oversubscribe: 4,
		Tol:           1e-3,
		Seed:          1,
		FixedOmega:    0.5,
	}
}

// Stability outcomes, from worst to best. "stabilised" is a convergence
// the adaptive controller had to work for (it tightened ω at least
// once); "converged" needed no intervention.
const (
	OutcomeRolledBack = "rolled-back"
	OutcomeStalled    = "stalled"
	OutcomeConverged  = "converged"
	OutcomeStabilised = "stabilised"
)

// OutcomeRank orders outcomes for regression checks: higher is better,
// and converged/stabilised tie (both are stable solves; whether ω had
// to move is a property of the run, not a regression).
func OutcomeRank(outcome string) int {
	switch outcome {
	case OutcomeStalled:
		return 1
	case OutcomeConverged, OutcomeStabilised:
		return 2
	}
	return 0
}

// StabilityCell is one (scenario, policy) cell of the stability map.
type StabilityCell struct {
	Scenario string  `json:"scenario"`
	Method   string  `json:"method"`
	Policy   string  `json:"policy"`
	Outcome  string  `json:"outcome"`
	RelRes   float64 `json:"relres"`
	Tightens int64   `json:"tightens"`
	Relaxes  int64   `json:"relaxes"`
	MinOmega float64 `json:"min_omega"`
}

// StabilityMap is the machine-checkable result of a staleness sweep.
type StabilityMap struct {
	Problem string          `json:"problem"`
	Size    int             `json:"size"`
	Cycles  int             `json:"cycles"`
	Tol     float64         `json:"tol"`
	Cells   []StabilityCell `json:"cells"`
}

// Cell returns the cell for (scenario, policy), or nil.
func (m *StabilityMap) Cell(scenario, policy string) *StabilityCell {
	for i := range m.Cells {
		if m.Cells[i].Scenario == scenario && m.Cells[i].Policy == policy {
			return &m.Cells[i]
		}
	}
	return nil
}

// Rescued counts scenarios that roll back undamped (ω = 1) but end
// stable (converged or stabilised) under the adaptive policy — the
// headline number of the tentpole.
func (m *StabilityMap) Rescued() int {
	n := 0
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Policy != PolicyUndamped || c.Outcome != OutcomeRolledBack {
			continue
		}
		if a := m.Cell(c.Scenario, PolicyAuto); a != nil && OutcomeRank(a.Outcome) == 2 {
			n++
		}
	}
	return n
}

// WriteJSON writes the map as indented JSON.
func (m *StabilityMap) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// The sweep's policy columns.
const (
	PolicyUndamped = "omega=1"
	PolicyFixed    = "fixed"
	PolicyAuto     = "auto"
)

// stalenessScenario is one row of the sweep.
type stalenessScenario struct {
	name           string
	method         engine.Method
	perturb        async.Perturb
	threadsPerGrid int
}

// scenarios expands the config into the sweep rows: the uniform-hold
// sweep, a straggler row (finest grid slow, everyone else fresh), an
// oversubscribed row, and an AFACx row at the heaviest uniform hold.
func (cfg StalenessConfig) scenarios() []stalenessScenario {
	var out []stalenessScenario
	maxHold := 1
	for _, h := range cfg.Holds {
		out = append(out, stalenessScenario{
			name:   fmt.Sprintf("uniform-hold-%d", h),
			method: engine.Multadd, perturb: async.Perturb{ReadHold: h}, threadsPerGrid: 1,
		})
		if h > maxHold {
			maxHold = h
		}
	}
	out = append(out,
		stalenessScenario{
			name:   fmt.Sprintf("straggler-hold-%d", cfg.StragglerHold),
			method: engine.Multadd,
			perturb: async.Perturb{
				ReadHold: 2, Stragglers: []int{0}, StragglerHold: cfg.StragglerHold,
			},
			threadsPerGrid: 1,
		},
		stalenessScenario{
			name:           fmt.Sprintf("oversub-x%d-hold-6", cfg.Oversubscribe),
			method:         engine.Multadd,
			perturb:        async.Perturb{ReadHold: 6},
			threadsPerGrid: cfg.Oversubscribe,
		},
		stalenessScenario{
			name:           fmt.Sprintf("afacx-hold-%d", maxHold),
			method:         engine.AFACx,
			perturb:        async.Perturb{ReadHold: maxHold},
			threadsPerGrid: 1,
		},
	)
	return out
}

// policies returns the sweep's policy columns.
func (cfg StalenessConfig) policies() []struct {
	name   string
	policy async.DampingPolicy
} {
	return []struct {
		name   string
		policy async.DampingPolicy
	}{
		{PolicyUndamped, async.DampingPolicy{Mode: async.DampOff, Rollback: true}},
		{PolicyFixed, async.DampingPolicy{Mode: async.DampFixed, Omega: cfg.FixedOmega, Rollback: true}},
		{PolicyAuto, async.DampingPolicy{Mode: async.DampAuto, Rollback: true}},
	}
}

// classify maps a finished solve to its stability outcome.
func classify(res *async.Result, tol float64) string {
	switch {
	case res.RolledBack || res.Diverged:
		return OutcomeRolledBack
	case res.RelRes > tol:
		return OutcomeStalled
	case res.DampTightens > 0:
		return OutcomeStabilised
	}
	return OutcomeConverged
}

// StalenessSweep runs the staleness × damping-policy grid, prints the
// stability table, and returns the machine-checkable map. Asynchronous
// runs are nondeterministic in general, but every scenario here injects
// its adversity through Perturb's self-relative read holds, which makes
// the divergence mechanism (h corrections from one stale read)
// scheduling-independent — the acceptance tests pin the same cells
// under -race.
func StalenessSweep(w io.Writer, cfg StalenessConfig) (*StabilityMap, error) {
	s, err := paperEngine(solve.Source{Problem: cfg.Problem, Size: cfg.Size}, 1, smoother.WJacobi)
	if err != nil {
		return nil, err
	}
	b := grid.RandomRHS(s.LevelSize(0), cfg.Seed)
	l := s.NumLevels()

	m := &StabilityMap{Problem: cfg.Problem, Size: cfg.Size, Cycles: cfg.Cycles, Tol: cfg.Tol}
	fmt.Fprintf(w, "# Staleness sweep (%s n=%d): async additive, %d cycles/grid, %d levels, tol %.0e\n",
		cfg.Problem, cfg.Size, cfg.Cycles, l, cfg.Tol)
	fmt.Fprintf(w, "%-22s %-8s %-9s %-12s %12s %9s %8s %8s\n",
		"scenario", "method", "policy", "outcome", "relres", "min(ω)", "tighten", "relax")
	for _, sc := range cfg.scenarios() {
		for _, pc := range cfg.policies() {
			out, err := solve.Run(context.Background(), s, &solve.Plan{
				Method: sc.method, Mode: solve.ModeAsync, Cycles: cfg.Cycles,
				Async: async.Config{
					Res: async.LocalRes, Write: async.AtomicWrite, Criterion: async.Criterion1,
					Threads: sc.threadsPerGrid * l, Perturb: sc.perturb, Damping: pc.policy,
				},
			}, b, cfg.Observer)
			if err != nil {
				return nil, fmt.Errorf("scenario %s policy %s: %w", sc.name, pc.name, err)
			}
			res := out.Async
			cell := StabilityCell{
				Scenario: sc.name,
				Method:   sc.method.String(),
				Policy:   pc.name,
				Outcome:  classify(res, cfg.Tol),
				RelRes:   res.RelRes,
				Tightens: res.DampTightens,
				Relaxes:  res.DampRelaxes,
				MinOmega: out.MinOmega(),
			}
			m.Cells = append(m.Cells, cell)
			fmt.Fprintf(w, "%-22s %-8s %-9s %-12s %12.3e %9.3f %8d %8d\n",
				cell.Scenario, cell.Method, cell.Policy, cell.Outcome,
				cell.RelRes, cell.MinOmega, cell.Tightens, cell.Relaxes)
		}
	}
	fmt.Fprintf(w, "# %d scenario(s) roll back at ω=1 and are rescued by the adaptive policy\n", m.Rescued())
	return m, nil
}
