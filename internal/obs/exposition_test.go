package obs

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// exercise records a distinct value into every instrument of o: through
// its recording method where one exists, through the field otherwise
// (the fault, serving and routing counters and the queue-depth gauge,
// which their packages drive directly).
func exercise(o *Observer) {
	o.Relaxed(0, 2)
	o.Relaxed(2, 5)
	o.Corrected(0, 0)
	o.Corrected(1, 3)
	o.Corrected(1, -1) // unknown staleness: counted, not observed
	o.Corrected(2, 200)
	o.OmegaSet(0, 0.75)
	o.DampTightened(1, 0.5)
	o.DampRelaxed(2, 0.625)
	o.DampRelaxed(2, 0.875)
	o.RolledBack(1.5)
	o.CycleDone(0.25)
	o.ResidualSample(1, 0.125)
	o.IterationDone(0.5)
	o.IterationDone(0.0625)
	o.KrylovSolved("pcg", true)
	o.KrylovSolved("fgmres", false)
	o.KrylovSolved("fgmres", true)
	o.KrylovBreakdown()
	o.SetupDone(1000, 100, 200, 300, 50, 250, 60, 40)
	o.Sparsified(2, 528, 1)
	o.CorrectionPayload(0, 4096)
	o.CorrectionPayload(2, 64)
	o.TraceEvent(EvRecovery, -1, 0)
	o.TraceEvent(EvBroadcast, 1, 2)
	for i, c := range []*Counter{
		o.Drops, o.Duplicates, o.Crashes, o.Respawns,
		o.WatchdogFires, o.DivergenceResets,
		o.Discarded, o.RetiredGrids, o.StaleSnapshot,
		o.CacheHits, o.CacheMisses, o.CacheEvictions,
		o.Rejected, o.Requests, o.Warms,
		o.RouteForwards, o.RouteRetries,
		o.RouteHedges, o.RouteHedgeWins,
		o.RouteFailovers, o.RouteLocalFallbacks,
		o.BreakerOpens, o.BreakerRejects,
		o.RingRebuilds, o.ReplicaWarms,
		o.ProbeFailures,
	} {
		c.Add(int64(101 + i))
	}
	o.QueueDepth.Set(9)
	o.QueueDepth.Set(2)
}

// stable drops the exposition lines whose values vary from run to run:
// the par pool's process-global gauges and the trace timeline.
func stable(text string) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(l, "pool_") && !strings.HasPrefix(l, "trace ") {
			b.WriteString(l)
		}
	}
	return b.String()
}

// TestExposition pins WriteText of a fully exercised observer: the
// format of each instrument kind, the sorted order, and every line but
// the pool and trace lines byte for byte against testdata/exposition.txt.
func TestExposition(t *testing.T) {
	o := New(4).WithTrace(16)
	exercise(o)
	var buf bytes.Buffer
	if err := o.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// One line per kind: gauge (value and high-water mark), counter,
	// per-grid counter (a grid never recorded reads 0), histogram
	// (cumulative buckets, +Inf, sum, count).
	for _, l := range []string{
		"serve_queue_depth 2",
		"serve_queue_depth_max 9",
		"fault_drops_total 101",
		`grid_relaxations_total{grid="2"} 5`,
		`grid_relaxations_total{grid="3"} 0`,
		`staleness_sweeps_bucket{le="0"} 1`,
		`staleness_sweeps_bucket{le="4"} 2`,
		`staleness_sweeps_bucket{le="128"} 2`,
		`staleness_sweeps_bucket{le="+Inf"} 3`,
		"staleness_sweeps_sum 203",
		"staleness_sweeps_count 3",
	} {
		if !strings.Contains("\n"+text, "\n"+l+"\n") {
			t.Errorf("exposition missing line %q", l)
		}
	}
	// Callbacks: the four pool lines, read at exposition time.
	pool := regexp.MustCompile(`(?m)^pool_(dispatches_total|serial_kernels_total|contended_total|busy_ns_total) [0-9]+$`)
	if n := len(pool.FindAllString(text, -1)); n != 4 {
		t.Errorf("exposition has %d pool callback lines, want 4:\n%s", n, text)
	}
	// The trace timeline, one line per event, times elided.
	when := regexp.MustCompile(`(?m)^(trace [0-9]+) [^ ]+ `)
	wantTrace := `trace 0 correction grid=0 value=0
trace 1 correction grid=1 value=3
trace 2 correction grid=1 value=-1
trace 3 correction grid=2 value=200
trace 4 damp grid=1 value=0.5
trace 5 damp grid=2 value=0.625
trace 6 damp grid=2 value=0.875
trace 7 rollback grid=-1 value=1.5
trace 8 cycle grid=-1 value=0.25
trace 9 residual grid=1 value=0.125
trace 10 iteration grid=-1 value=0.5
trace 11 iteration grid=-1 value=0.0625
trace 12 recovery grid=-1 value=0
trace 13 broadcast grid=1 value=2
`
	if got := when.ReplaceAllString(text[strings.Index(text, "trace "):], "$1 "); got != wantTrace {
		t.Errorf("trace timeline:\n%s\nwant:\n%s", got, wantTrace)
	}

	// Sorted by instrument name; a gauge's _max line and a histogram's
	// _bucket/_sum/_count lines sort with their instrument.
	suffix := regexp.MustCompile(`_(max|bucket|sum|count)$`)
	prev := ""
	for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(l, "trace ") {
			continue
		}
		name := suffix.ReplaceAllString(l[:strings.IndexAny(l, "{ ")], "")
		if name < prev {
			t.Errorf("exposition not sorted: %q after %q", name, prev)
		}
		prev = name
	}

	want, err := os.ReadFile("testdata/exposition.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := stable(text); got != string(want) {
		t.Errorf("exposition differs from testdata/exposition.txt; got:\n%s", got)
	}
}
