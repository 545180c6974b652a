// Package obs is the solver observability layer: allocation-free metric
// instruments (atomic counters and gauges, cache-line-padded per-grid
// counter vectors, fixed-bucket histograms), an optional bounded
// ring-buffer event tracer, and the Observer type that the cycle engine,
// the asynchronous goroutine teams, the distributed-memory simulation,
// the §III models, the par worker pool and the Krylov solvers all report
// into. Each Observer field names its exposition metric in a struct tag;
// New turns the tags into the one table that WriteText, Merge and
// Snapshot walk.
//
// Everything the paper's evaluation plots — per-grid relaxation counts
// (Figures 4-6 x-axes), correction staleness (the read delay δ of the
// semi/full-async models), residual timelines (Figures 1-3) — is exposed
// on a live run through one Observer.
//
// Design rules:
//
//   - Recording on the solver hot path never allocates: counters and
//     histograms are plain atomic adds, per-grid cells are padded to a
//     cache line so teams on different grids never false-share, and the
//     tracer writes into a preallocated ring under a short mutex.
//   - Every recording method is safe on a nil receiver, so solvers thread
//     one *Observer unconditionally and a nil observer costs one branch.
//   - Reads (Snapshot, WriteText) are concurrent-safe with writers; they
//     observe each instrument atomically but the set as a whole is only
//     loosely consistent, as live metrics always are.
package obs

import (
	"fmt"
	"sync/atomic"
)

// cell is a cache-line-padded atomic counter: per-grid instruments give
// each grid its own cell so concurrent teams never contend or false-share.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that can move both ways and
// tracks its high-water mark. The zero value is ready; methods are
// nil-safe.
type Gauge struct {
	v, max atomic.Int64
}

// Set stores v as the current value (the high-water mark keeps its max).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// GridCounters is a fixed-length vector of per-grid counters, one padded
// cache line per grid. Methods are nil-safe and ignore out-of-range grid
// indices (a negative grid index means "not grid-attributed" and is
// dropped rather than misfiled).
type GridCounters struct {
	cells []cell
}

// NewGridCounters returns a counter vector for `grids` grids.
func NewGridCounters(grids int) *GridCounters {
	if grids < 0 {
		grids = 0
	}
	return &GridCounters{cells: make([]cell, grids)}
}

// Add increments grid k's counter by d.
func (g *GridCounters) Add(k int, d int64) {
	if g == nil || k < 0 || k >= len(g.cells) {
		return
	}
	g.cells[k].v.Add(d)
}

// Inc increments grid k's counter by one.
func (g *GridCounters) Inc(k int) { g.Add(k, 1) }

// Set stores v as grid k's value, for a vector that holds a per-grid
// setting rather than a count (the damping factors ω_k).
func (g *GridCounters) Set(k int, v int64) {
	if g == nil || k < 0 || k >= len(g.cells) {
		return
	}
	g.cells[k].v.Store(v)
}

// Load returns grid k's count.
func (g *GridCounters) Load(k int) int64 {
	if g == nil || k < 0 || k >= len(g.cells) {
		return 0
	}
	return g.cells[k].v.Load()
}

// Len returns the number of grids.
func (g *GridCounters) Len() int {
	if g == nil {
		return 0
	}
	return len(g.cells)
}

// Snapshot appends the per-grid counts to dst and returns it.
func (g *GridCounters) Snapshot(dst []int64) []int64 {
	for k := 0; k < g.Len(); k++ {
		dst = append(dst, g.Load(k))
	}
	return dst
}

// Histogram is a fixed-bucket histogram of int64 observations (counts,
// ages in sweeps, queue depths). Bucket b counts observations <=
// Bounds[b]; one implicit overflow bucket counts the rest. Observe is a
// single atomic add into a padded cell plus one into the sum, so
// concurrent teams do not contend on a lock.
type Histogram struct {
	bounds  []int64
	buckets []cell
	sum     atomic.Int64
	count   atomic.Int64
}

// DefaultStalenessBounds is the bucket layout used for correction
// staleness (age in sweeps): exponential, 0..128 sweeps plus overflow.
func DefaultStalenessBounds() []int64 { return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128} }

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (plus an implicit +Inf bucket).
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds must ascend, got %v", bounds))
		}
	}
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]cell, len(b)+1)}
}

// Observe records one observation. Nil-safe, allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Branch-light linear scan: staleness histograms have ~10 buckets and
	// observations cluster in the first few, so a scan beats binary search.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].v.Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// merge adds src's observations into h. Every histogram an observer
// holds has the staleness bucket layout.
func (h *Histogram) merge(src *Histogram) {
	for i := range h.buckets {
		h.buckets[i].v.Add(src.buckets[i].v.Load())
	}
	h.sum.Add(src.sum.Load())
	h.count.Add(src.count.Load())
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1
	// entries, the last being the overflow bucket.
	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].v.Load()
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded observations: the smallest bucket bound containing it.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] + 1 // overflow bucket
		}
	}
	return s.Bounds[len(s.Bounds)-1] + 1
}
