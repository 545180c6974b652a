// Package par provides the persistent goroutine worker pool behind the
// repository's parallel compute kernels (sparse SpMV/residual, vec
// axpy/dot/norm and the fused Krylov passes, the smoothed-interpolant
// kernels), and FreeList, the one type through which the program reuses
// state between calls: kernel descriptors, Krylov and GEMM scratch,
// engine workspaces. A free list keeps its idle objects across GCs.
//
// The pool is built for steady-state hot loops: dispatching a kernel
// performs no heap allocation (workers are parked on per-worker channels
// and woken with empty-struct sends; the kernel is passed as a pointer
// through an interface field), so solvers that run thousands of cycles
// stay allocation-free while still sharding row loops across cores.
//
// Kernels are sharded over a contiguous index space [0, n): worker i
// receives the half-open range [i*n/w, (i+1)*n/w). Row-independent kernels
// (SpMV, residual, axpy) therefore produce bitwise-identical results
// regardless of the worker count. The reductions of package vec shard an
// index space of fixed-size row blocks and write one partial per block,
// which the caller adds in block order, so they too are independent of
// the worker count.
//
// A pool runs one dispatch at a time, and no caller waits for it: a Run
// that finds the pool busy runs every shard itself, over the same ranges
// and in shard order, so two solves in flight never queue behind each
// other's kernels, and a kernel may call Run on its own pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel is a data-parallel computation over an index space. Do computes
// the shard's share [lo, hi); shard identifies the worker (0-based) so
// reduction kernels can write into padded per-shard slots.
type Kernel interface {
	Do(shard, lo, hi int)
}

// DefaultThreshold is the initial parallel-dispatch threshold in work
// units (roughly flops): kernels whose total work is below the threshold
// run serially on the caller. See SetThreshold.
const DefaultThreshold = 1 << 15

// threshold is the current dispatch threshold (atomic; see SetThreshold).
var threshold atomic.Int64

func init() { threshold.Store(DefaultThreshold) }

// SetThreshold sets the minimum kernel work (in flops, approximately) for
// parallel dispatch. Below it, kernels run serially on the caller —
// goroutine handoff costs more than the loop for small levels of a
// multigrid hierarchy. n <= 0 restores DefaultThreshold.
func SetThreshold(n int) {
	if n <= 0 {
		n = DefaultThreshold
	}
	threshold.Store(int64(n))
}

// Threshold returns the current parallel-dispatch threshold.
func Threshold() int { return int(threshold.Load()) }

// Pool is a persistent team of worker goroutines executing Kernels over
// sharded index ranges. The zero value is not usable; use NewPool. A Pool
// dispatches one kernel at a time; a Run that finds it busy runs its
// shards on the caller (see Run).
type Pool struct {
	workers int
	mu      sync.Mutex // held by the dispatching Run
	// Current dispatch, written under mu before workers are woken.
	k Kernel
	n int
	// panicked, guarded by failMu, is the first value a shard of the
	// current dispatch panicked with, raised again on the caller once
	// every shard is done.
	failMu   sync.Mutex
	panicked any
	wake     []chan struct{} // one per auxiliary worker (1..workers-1)
	done     chan struct{}
	quit     chan struct{}
}

// NewPool starts a pool with the given number of workers (the caller
// counts as worker 0, so workers-1 goroutines are spawned). workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		done:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	p.wake = make([]chan struct{}, workers-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i + 1)
	}
	return p
}

// Workers returns the pool's worker count (including the caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) worker(shard int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake[shard-1]:
		}
		p.do(shard)
		p.done <- struct{}{}
	}
}

// do runs the current dispatch's share of shard, keeping a panic for Run
// to raise on the caller: a worker that died would take the process with
// it, and a caller that left early would leave the pool held.
func (p *Pool) do(shard int) {
	defer func() {
		if v := recover(); v != nil {
			p.fail(v)
		}
	}()
	if lo, hi := shardRange(p.n, p.workers, shard); lo < hi {
		p.k.Do(shard, lo, hi)
	}
}

func (p *Pool) fail(v any) {
	p.failMu.Lock()
	if p.panicked == nil {
		p.panicked = v
	}
	p.failMu.Unlock()
}

func shardRange(n, workers, shard int) (int, int) {
	return n * shard / workers, n * (shard + 1) / workers
}

// ShardRange returns the half-open index range [lo, hi) that worker
// `shard` of a `workers`-wide pool receives for an n-element kernel. It
// is exported for kernels that stage per-shard scratch (e.g. the
// two-pass sparse GEMM and the FEM assembly merge), which must know
// which shards will actually run — shards with lo >= hi are never
// dispatched, so their scratch is never initialized.
func ShardRange(n, workers, shard int) (lo, hi int) {
	return shardRange(n, workers, shard)
}

// Pool observability counters (package-level, covering every pool; the
// asyncmg deployments run one shared pool, so per-pool attribution is not
// worth per-pool state). All are plain atomics — recording costs one
// atomic add on a path that amortizes over a whole sharded kernel. Every
// dispatch writes them, so 64 bytes of padding on each side keep them off
// the cache lines of whatever package data the linker places beside them.
var stats struct {
	_          [64]byte
	dispatches atomic.Int64 // kernels sharded across workers
	serial     atomic.Int64 // kernels kept serial (below threshold or 1 worker)
	contended  atomic.Int64 // kernels that found the pool busy and ran on their caller
	busyNS     atomic.Int64 // wall time spent inside parallel dispatches
	_          [64]byte
}

// Stats is a point-in-time copy of the pool counters. Dispatches + Serial
// + Contended counts every kernel call.
type Stats struct {
	// Dispatches counts kernels sharded across the workers; Serial counts
	// kernels that ran on the caller (below the work threshold, or a
	// one-worker pool); Contended counts kernels that met the threshold,
	// found the pool running another kernel and ran every shard on the
	// caller.
	Dispatches, Serial, Contended int64
	// BusyNS is the cumulative wall time (ns) spent inside parallel
	// dispatches — divide by elapsed wall time for pool utilization.
	BusyNS int64
}

// ReadStats returns the current pool counters.
func ReadStats() Stats {
	return Stats{
		Dispatches: stats.dispatches.Load(),
		Serial:     stats.serial.Load(),
		Contended:  stats.contended.Load(),
		BusyNS:     stats.busyNS.Load(),
	}
}

// Run executes k over [0, n) across all workers and returns when every
// shard is done. The caller executes shard 0. A caller that finds the
// pool running another kernel (another goroutine's, or its own when a
// kernel calls Run) does not wait: it runs every shard itself, in shard
// order, over the ranges the workers would have received, so kernels that
// write per-shard slots see the same (shard, lo, hi) calls either way. A
// shard that panics makes Run panic on the caller with the first such
// value, after every shard is done; the pool stays usable. Run performs
// no heap allocation.
func (p *Pool) Run(n int, k Kernel) {
	if p == nil || p.workers == 1 || n <= 1 {
		stats.serial.Add(1)
		k.Do(0, 0, n)
		return
	}
	if !p.mu.TryLock() {
		stats.contended.Add(1)
		for shard := range p.workers {
			if lo, hi := shardRange(n, p.workers, shard); lo < hi {
				k.Do(shard, lo, hi)
			}
		}
		return
	}
	start := time.Now()
	p.k, p.n = k, n
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.do(0)
	for range p.wake {
		<-p.done
	}
	v := p.panicked
	p.k, p.panicked = nil, nil
	p.mu.Unlock()
	stats.dispatches.Add(1)
	stats.busyNS.Add(int64(time.Since(start)))
	if v != nil {
		panic(v)
	}
}

// Close stops the pool's worker goroutines. A closed pool must not be
// used again.
func (p *Pool) Close() { close(p.quit) }

// defaultPool is the process-wide pool used by the sparse and vec kernel
// wrappers; created lazily on first use.
var defaultPool atomic.Pointer[Pool]

// Default returns the shared kernel pool, creating it (with GOMAXPROCS
// workers) on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(0)
	if !defaultPool.CompareAndSwap(nil, p) {
		p.Close()
		return defaultPool.Load()
	}
	return p
}

// SetWorkers replaces the shared pool with one of the given size
// (<= 0 selects GOMAXPROCS). Intended for benchmarks and command-line
// knobs; not safe to call while kernels are running on the old pool.
func SetWorkers(n int) {
	old := defaultPool.Swap(NewPool(n))
	if old != nil {
		old.Close()
	}
}

// Par reports whether a kernel with the given total work should be
// dispatched in parallel on the shared pool: the pool has more than one
// worker and work meets the threshold. A false result is counted as a
// serial kernel, so Stats covers every wrapper invocation.
func Par(work int) bool {
	if work >= Threshold() && Default().Workers() > 1 {
		return true
	}
	stats.serial.Add(1)
	return false
}

// Run executes k over [0, n): across the shared pool when work meets the
// Par threshold, serially on the caller otherwise (and counted as such).
func Run(work, n int, k Kernel) {
	if Par(work) {
		Default().Run(n, k)
		return
	}
	k.Do(0, 0, n)
}
