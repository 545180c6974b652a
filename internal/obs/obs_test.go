package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c *Counter
	c.Add(5) // nil-safe
	if c.Load() != 0 {
		t.Fatalf("nil counter loaded %d", c.Load())
	}
	c = &Counter{}
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	var g *Gauge
	g.Set(9) // nil-safe
	g = &Gauge{}
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	if got := g.Max(); got != 7 {
		t.Fatalf("gauge max = %d, want 7", got)
	}
}

func TestGridCounters(t *testing.T) {
	gc := NewGridCounters(3)
	gc.Inc(0)
	gc.Add(2, 10)
	gc.Add(-1, 99) // dropped
	gc.Add(3, 99)  // dropped
	if got := gc.Load(0); got != 1 {
		t.Fatalf("grid 0 = %d, want 1", got)
	}
	if got := gc.Load(2); got != 10 {
		t.Fatalf("grid 2 = %d, want 10", got)
	}
	if snap := gc.Snapshot(nil); len(snap) != 3 || snap[2] != 10 {
		t.Fatalf("snapshot = %v", snap)
	}
	gc.Set(2, 4)
	gc.Set(3, 99) // dropped
	if got := gc.Load(2); got != 4 {
		t.Fatalf("grid 2 after Set = %d, want 4", got)
	}
	var nilGC *GridCounters
	nilGC.Inc(0)
	if nilGC.Len() != 0 || nilGC.Load(0) != 0 {
		t.Fatal("nil GridCounters not inert")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{0, 1, 4})
	for _, v := range []int64{0, 0, 1, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 2, 1} // <=0, <=1, <=4, overflow
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], c, s)
		}
	}
	if s.Sum != 108 || s.Count != 6 {
		t.Fatalf("sum/count = %d/%d, want 108/6", s.Sum, s.Count)
	}
	if m := h.Mean(); m != 18 {
		t.Fatalf("mean = %v, want 18", m)
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %d, want 1", q)
	}
	if q := s.Quantile(1.0); q != 5 { // overflow bucket reports bounds[last]+1
		t.Fatalf("p100 = %d, want 5", q)
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 {
		t.Fatal("nil histogram not inert")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]int64{3, 1})
}

func TestTracerRingAndDropped(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(EvCorrection, i, float64(i))
	}
	// The ring keeps the last four events; the two oldest are dropped.
	ev := tr.Events()
	if len(ev) != 4 || ev[0].Seq != 2 || ev[3].Seq != 5 || ev[3].Grid != 5 {
		t.Fatalf("events = %+v", ev)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].When < ev[i-1].When {
			t.Fatalf("timeline not monotone: %+v", ev)
		}
	}
	var nilT *Tracer
	nilT.Record(EvCycle, 0, 0)
	if nilT.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
}

// TestMerge merges a fully exercised observer into a fresh one: every
// line of the exposition but the gauges, the pool readings and the trace
// must match the source's, and the gauges must stay unmerged.
func TestMerge(t *testing.T) {
	gauges := regexp.MustCompile(`(?m)^(serve_queue_depth|damping_omega_milli)\S* -?[0-9]+\n`)
	counts := func(o *Observer) string {
		var b bytes.Buffer
		if err := o.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return gauges.ReplaceAllString(stable(b.String()), "")
	}
	src := New(4).WithTrace(16)
	exercise(src)
	dst := New(4)
	dst.Merge(src)
	if got, want := counts(dst), counts(src); got != want {
		t.Errorf("merged exposition:\n%s\nwant:\n%s", got, want)
	}
	if dst.QueueDepth.Max() != 0 || dst.Omega.Load(0) != 0 {
		t.Errorf("gauges merged: queue depth max %d, omega %d", dst.QueueDepth.Max(), dst.Omega.Load(0))
	}

	// A second merge doubles the counts; a shallower observer drops the
	// grids it does not have; nil on either side is a no-op.
	dst.Merge(src)
	if got := dst.SentNNZ.Load(0); got != 2*4096 {
		t.Errorf("distmem_sent_nnz_total{grid=0} after two merges = %d, want %d", got, 2*4096)
	}
	short := New(2)
	short.Merge(src)
	if short.Relaxations.Len() != 2 || short.Relaxations.Load(0) != 2 || short.Drops.Load() != 101 {
		t.Errorf("merge into 2 grids: relaxations %v, drops %d", short.Relaxations.Snapshot(nil), short.Drops.Load())
	}
	short.Merge(nil)
	var nilObs *Observer
	nilObs.Merge(src)
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	o.Relaxed(0, 1)
	o.Corrected(0, 3)
	o.CycleDone(0.5)
	o.ResidualSample(1, 0.1)
	o.IterationDone(0.2)
	o.TraceEvent(EvRecovery, -1, 0)
	if s := o.Snapshot(); s.Relaxations != nil || s.Events != nil {
		t.Fatalf("nil observer snapshot not zero: %+v", s)
	}
	if err := o.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if o.WithTrace(8) != nil {
		t.Fatal("nil WithTrace should return nil")
	}
}

func TestObserverEndToEnd(t *testing.T) {
	o := New(3).WithTrace(16)
	o.Relaxed(0, 2)
	o.Relaxed(2, 1)
	o.Corrected(0, 0)
	o.Corrected(1, 5)
	o.Corrected(1, -1) // unknown staleness: counted, not observed
	o.CycleDone(0.25)
	o.Drops.Add(3)

	s := o.Snapshot()
	if s.Relaxations[0] != 2 || s.Relaxations[2] != 1 {
		t.Fatalf("relaxations = %v", s.Relaxations)
	}
	if s.Corrections[0] != 1 || s.Corrections[1] != 2 {
		t.Fatalf("corrections = %v", s.Corrections)
	}
	if s.Staleness.Count != 2 || s.Staleness.Sum != 5 {
		t.Fatalf("staleness = %+v", s.Staleness)
	}
	if s.Faults["fault_drops_total"] != 3 {
		t.Fatalf("faults = %v", s.Faults)
	}
	if len(s.Events) != 4 { // 3 corrections + 1 cycle
		t.Fatalf("events = %+v", s.Events)
	}

	var buf bytes.Buffer
	if err := o.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{
		`grid_relaxations_total{grid="0"} 2`,
		`grid_corrections_total{grid="1"} 2`,
		"staleness_sweeps_count 2",
		"fault_drops_total 3",
		"pool_dispatches_total",
		"trace 0 ",
	} {
		if !strings.Contains(buf.String(), l) {
			t.Errorf("exposition missing %q:\n%s", l, buf.String())
		}
	}
}

// TestObserverConcurrent hammers one observer from many goroutines; run
// under -race this is the subsystem's data-race certification.
func TestObserverConcurrent(t *testing.T) {
	o := New(4).WithTrace(64)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Relaxed(w%4, 1)
				o.Corrected(w%4, int64(i%10))
				if i%50 == 0 {
					_ = o.Snapshot()
					_ = o.WriteText(&bytes.Buffer{})
				}
			}
		}(w)
	}
	wg.Wait()
	s := o.Snapshot()
	var relax, corr int64
	for k := range s.Relaxations {
		relax += s.Relaxations[k]
		corr += s.Corrections[k]
	}
	if relax != workers*per || corr != workers*per {
		t.Fatalf("lost updates: relax=%d corr=%d, want %d", relax, corr, workers*per)
	}
	if s.Staleness.Count != workers*per {
		t.Fatalf("staleness count = %d, want %d", s.Staleness.Count, workers*per)
	}
}

// TestRecordingZeroAllocs pins the tentpole guarantee: recording on the
// hot path performs no heap allocation.
func TestRecordingZeroAllocs(t *testing.T) {
	o := New(4).WithTrace(32)
	if allocs := testing.AllocsPerRun(100, func() {
		o.Relaxed(1, 1)
		o.Corrected(2, 3)
		o.CycleDone(0.5)
		o.TraceEvent(EvRecovery, -1, 1)
	}); allocs != 0 {
		t.Fatalf("recording allocates %v per run, want 0", allocs)
	}
	var nilObs *Observer
	if allocs := testing.AllocsPerRun(100, func() {
		nilObs.Relaxed(1, 1)
		nilObs.Corrected(2, 3)
	}); allocs != 0 {
		t.Fatalf("nil observer allocates %v per run, want 0", allocs)
	}
}
