package obs

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// EventKind tags a tracer event.
type EventKind uint8

const (
	// EvCycle marks one completed V-cycle of a synchronous solve; Value
	// is the relative residual after the cycle (when recorded).
	EvCycle EventKind = iota + 1
	// EvCorrection marks one applied grid correction; Grid is the grid,
	// Value is the correction's staleness in sweeps (or -1 if unknown).
	EvCorrection
	// EvResidual is a residual-norm sample; Value is ‖r‖₂/‖b‖₂ (or the
	// unnormalized norm where noted by the producer).
	EvResidual
	// EvBroadcast marks a distmem owner residual broadcast.
	EvBroadcast
	// EvRecovery marks a recovery action (watchdog fire, respawn,
	// retirement); Grid is the affected grid (-1 for a global action).
	EvRecovery
	// EvRollback marks a distmem divergence rollback to the best
	// checkpoint; Value is the residual norm that triggered it.
	EvRollback
	// EvIteration marks one Krylov iteration; Value is the relative
	// residual.
	EvIteration
	// EvDamp marks a damping-factor change by the adaptive controller;
	// Grid is the grid whose ω moved, Value is the new ω.
	EvDamp
)

// eventNames holds the kinds' names from EvCycle on. Its 128 bytes are a
// whole number of cache lines, so the data linked after obs keeps its
// line offsets (EXPERIMENTS.md, "One metric table").
var eventNames = [...]string{"cycle", "correction", "residual", "broadcast", "recovery", "rollback", "iteration", "damp"}

func (k EventKind) String() string {
	if k >= EvCycle && int(k-EvCycle) < len(eventNames) {
		return eventNames[k-EvCycle]
	}
	return "unknown"
}

// Event is one timeline entry: what happened, on which grid, when
// (nanoseconds since the tracer started), and an event-specific value.
type Event struct {
	Seq   uint64
	When  int64 // ns since tracer start
	Kind  EventKind
	Grid  int32
	Value float64
}

// Tracer is a bounded ring buffer of timeline events. Recording copies a
// fixed-size Event into a preallocated ring under a short mutex — no
// allocation, no unbounded growth; once the ring wraps, the oldest events
// are overwritten (each event keeps its Seq, its number among all events
// recorded). A nil *Tracer ignores Record, so tracing is strictly opt-in.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	ring  []Event
	next  uint64 // total events ever recorded
}

// NewTracer returns a tracer retaining the last `capacity` events
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{start: time.Now(), ring: make([]Event, capacity)}
}

// Record appends an event to the ring. Nil-safe and allocation-free.
func (t *Tracer) Record(kind EventKind, grid int, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e := &t.ring[t.next%uint64(len(t.ring))]
	e.Seq = t.next
	e.When = int64(time.Since(t.start))
	e.Kind = kind
	e.Grid = int32(grid)
	e.Value = value
	t.next++
	t.mu.Unlock()
}

// Events returns the retained events in recording order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.next <= n {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, n)
	for i := t.next - n; i < t.next; i++ {
		out = append(out, t.ring[i%n])
	}
	return out
}

// writeText writes the retained events as one line each:
//
//	trace 12 3.45ms correction grid=2 value=1
func (t *Tracer) writeText(b *bytes.Buffer) {
	for _, e := range t.Events() {
		fmt.Fprintf(b, "trace %d %s %s grid=%d value=%g\n",
			e.Seq, time.Duration(e.When), e.Kind, e.Grid, e.Value)
	}
}
