package vec

import (
	"math"
	"sync/atomic"
)

// Atomic is a float64 vector whose elements are read and written with
// atomic operations on their IEEE-754 bit patterns. It is the shared global
// state (the solution x, and for global-res the residual r) of the
// asynchronous multigrid algorithms: goroutine teams belonging to different
// grids read and write it concurrently with no synchronization beyond the
// per-element atomicity, which realizes the paper's full-async model
// (Equations 7 and 10) while keeping the implementation free of Go data
// races.
type Atomic struct {
	bits []atomic.Uint64
}

// NewAtomic returns a zeroed atomic vector of length n.
func NewAtomic(n int) *Atomic {
	return &Atomic{bits: make([]atomic.Uint64, n)}
}

// Len returns the vector length.
func (a *Atomic) Len() int { return len(a.bits) }

// Load atomically reads element i.
func (a *Atomic) Load(i int) float64 {
	return math.Float64frombits(a.bits[i].Load())
}

// Store atomically writes element i.
func (a *Atomic) Store(i int, v float64) {
	a.bits[i].Store(math.Float64bits(v))
}

// Add atomically performs a fetch-and-add of delta to element i using a
// compare-and-swap loop — the paper's "atomic-write" option.
func (a *Atomic) Add(i int, delta float64) {
	for {
		old := a.bits[i].Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits[i].CompareAndSwap(old, new) {
			return
		}
	}
}

// AddRange adds delta[lo:hi] to elements [lo,hi) with per-element atomic
// fetch-and-add.
func (a *Atomic) AddRange(delta []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if delta[i] != 0 {
			a.Add(i, delta[i])
		}
	}
}

// StoreRange atomically stores src[lo:hi] into elements [lo,hi).
func (a *Atomic) StoreRange(src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		a.Store(i, src[i])
	}
}

// LoadRange atomically loads elements [lo,hi) into dst[lo:hi]. Because each
// element is loaded individually, the copy may mix values from different
// time instants — exactly the mixed-age reads of the full-async model.
func (a *Atomic) LoadRange(dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a.Load(i)
	}
}

// Snapshot loads the whole vector into dst.
func (a *Atomic) Snapshot(dst []float64) {
	a.LoadRange(dst, 0, len(a.bits))
}

// SetAll stores src into the whole vector.
func (a *Atomic) SetAll(src []float64) {
	a.StoreRange(src, 0, len(src))
}
