package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestStalenessSweepShape runs the default sweep and checks the claims
// the stability map is supposed to certify: every (scenario, policy)
// cell is present and classified, the undamped column rolls back on the
// destabilising scenarios, and the adaptive column never does, ending
// stable in at least three of the scenarios ω = 1 loses. Which of the
// adaptive cells end stable rather than stalled just above Tol depends on
// the scheduler (straggler-hold-12 and afacx-hold-8 stall in about one run
// in four on two cores), so the test does not name them.
func TestStalenessSweepShape(t *testing.T) {
	cfg := DefaultStaleness()
	var buf bytes.Buffer
	m, err := StalenessSweep(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cfg.scenarios()) * len(cfg.policies())
	if len(m.Cells) != wantCells {
		t.Fatalf("stability map has %d cells, want %d", len(m.Cells), wantCells)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		switch c.Outcome {
		case OutcomeRolledBack, OutcomeStalled, OutcomeConverged, OutcomeStabilised:
		default:
			t.Errorf("cell %s/%s: unknown outcome %q", c.Scenario, c.Policy, c.Outcome)
		}
		if c.MinOmega <= 0 || c.MinOmega > 1 {
			t.Errorf("cell %s/%s: min ω %v out of (0, 1]", c.Scenario, c.Policy, c.MinOmega)
		}
		if c.Policy == PolicyUndamped && c.Tightens != 0 {
			t.Errorf("cell %s/%s: undamped run tightened ω %d times", c.Scenario, c.Policy, c.Tightens)
		}
	}
	// The hold-1 row injects nothing: every policy must converge there.
	for _, p := range []string{PolicyUndamped, PolicyFixed, PolicyAuto} {
		c := m.Cell("uniform-hold-1", p)
		if c == nil {
			t.Fatalf("missing cell uniform-hold-1/%s", p)
		}
		if OutcomeRank(c.Outcome) != 2 {
			t.Errorf("uniform-hold-1/%s: outcome %s, want a stable solve", p, c.Outcome)
		}
	}
	for _, sc := range cfg.scenarios() {
		if c := m.Cell(sc.name, PolicyAuto); c == nil || OutcomeRank(c.Outcome) == 0 {
			t.Errorf("%s/%s: %+v, want no rollback under the adaptive policy", sc.name, PolicyAuto, c)
		}
	}
	if n := m.Rescued(); n < 3 {
		t.Errorf("adaptive policy rescued %d rolled-back scenarios, want >= 3", n)
	}
	// The table and the map agree on the rescue count.
	if !strings.Contains(buf.String(), "roll back at ω=1") {
		t.Errorf("table output missing the rescue summary line:\n%s", buf.String())
	}
	// The map round-trips through JSON (mgbench -exp staleness -out writes it).
	var jb bytes.Buffer
	if err := m.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back StabilityMap
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("stability map does not round-trip: %v", err)
	}
	if len(back.Cells) != len(m.Cells) || back.Rescued() != m.Rescued() {
		t.Errorf("JSON round-trip changed the map: %d cells rescued %d, want %d cells rescued %d",
			len(back.Cells), back.Rescued(), len(m.Cells), m.Rescued())
	}
}
