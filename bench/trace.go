package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until flush. A nil tracer records nothing and
// costs one branch per call, so the untraced run executes the same code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	id    int64
	par   int64
	req   int64
	name  string
	start time.Time
}

// begin starts a span under parent (0 for a root). With req 0 a root span
// names its own request.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	return openSpan{t: t, id: id, par: parent, req: req, name: name, start: time.Now()}
}

func (s openSpan) end() span {
	if s.t == nil {
		return span{}
	}
	rec := span{ID: s.id, Parent: s.par, Req: s.req, Name: s.name,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: time.Since(s.t.epoch).Nanoseconds()}
	s.t.record(rec)
	return rec
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reported is a duration the program under test emitted about its own work
// (SolveResponse.setup_ns, solve_ns).
type reported struct {
	name string
	ns   int64
}

// tail records children whose durations the program reported but whose start
// times it did not. They are stacked back from the end of the parent, in
// order, which is where the service does that work (setup, then solve, then
// encode); anything that would start before the parent is clipped.
func (t *tracer) tail(parent span, items ...reported) {
	if t == nil {
		return
	}
	end := parent.End
	for i := len(items) - 1; i >= 0; i-- {
		if items[i].ns <= 0 {
			continue
		}
		start := max(end-items[i].ns, parent.Start)
		t.record(span{ID: t.nextID.Add(1), Parent: parent.ID, Req: parent.Req, Name: items[i].name, Start: start, End: end})
		end = start
	}
}

// mark returns the number of spans recorded so far, so an analysis can be
// limited to the spans of one phase.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes computes, for the spans recorded since mark, each span name's
// total self time (duration minus the part its children cover) and total
// duration, in seconds, and the coverage of the named root spans: child self
// time over root duration.
func (t *tracer) selfTimes(mark int, root string) (self, dur map[string]float64, coverage float64) {
	self, dur = map[string]float64{}, map[string]float64{}
	if t == nil {
		return self, dur, 0
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans[mark:]...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var rootDur, rootSelf float64
	for _, s := range spans {
		d := float64(s.End - s.Start)
		own := d - covered(s, children[s.ID])
		self[s.Name] += own / 1e9
		dur[s.Name] += d / 1e9
		if s.Name == root {
			rootDur += d
			rootSelf += own
		}
	}
	if rootDur > 0 {
		coverage = (rootDur - rootSelf) / rootDur
	}
	return self, dur, coverage
}

// covered is the length of the union of the children's intervals, clipped to
// the parent (hedged attempts overlap; a straggler may outlive its parent).
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, hi := int64(0), parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return float64(total)
}

// flush writes the spans to bench/out/trace-<workload>.json.
func (t *tracer) flush(dir, workload string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
