package par

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// fillKernel writes shard-invariant values so results can be checked.
type fillKernel struct {
	out []float64
}

func (k *fillKernel) Do(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		k.out[i] = float64(2*i + 1)
	}
}

// markKernel records which shard handled each index.
type markKernel struct {
	shardOf []int
}

func (k *markKernel) Do(shard, lo, hi int) {
	for i := lo; i < hi; i++ {
		k.shardOf[i] = shard
	}
}

func TestRunCoversIndexSpace(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 100, 1023} {
			k := &fillKernel{out: make([]float64, n)}
			p.Run(n, k)
			for i, v := range k.out {
				if v != float64(2*i+1) {
					t.Fatalf("workers=%d n=%d: out[%d] = %v", workers, n, i, v)
				}
			}
		}
		p.Close()
	}
}

func TestRunShardsAreDisjointContiguous(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 101
	k := &markKernel{shardOf: make([]int, n)}
	p.Run(n, k)
	prev := 0
	for i := 1; i < n; i++ {
		if k.shardOf[i] < prev {
			t.Fatalf("shards not monotone at %d: %v then %v", i, prev, k.shardOf[i])
		}
		prev = k.shardOf[i]
	}
}

// TestRunConcurrentCallers: eight goroutines share a three-worker pool,
// so most of their kernels find it busy and run on their caller; every
// call fills its caller's whole index space with the caller's values.
func TestRunConcurrentCallers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 512)
			for it := 0; it < 50; it++ {
				c := float64(1000*g + it)
				p.Run(len(out), kernelFunc(func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = c + float64(i)
					}
				}))
				for i, v := range out {
					if v != c+float64(i) {
						t.Errorf("caller %d call %d: out[%d] = %v, want %v", g, it, i, v, c+float64(i))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// kernelFunc adapts a function to Kernel.
type kernelFunc func(shard, lo, hi int)

func (f kernelFunc) Do(shard, lo, hi int) { f(shard, lo, hi) }

// within runs f and fails the test if it has not returned after 10 s: a
// Run that waits for a busy pool never returns in these tests.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: the caller waited for a busy pool", what)
	}
}

// hold occupies p with a dispatch whose caller shard blocks until release
// is called, and returns once that shard has started.
func hold(p *Pool) (release func()) {
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.Run(p.Workers(), kernelFunc(func(shard, _, _ int) {
			if shard == 0 {
				close(held)
				<-free
			}
		}))
	}()
	<-held
	return func() {
		close(free)
		<-done
	}
}

// TestRunBusyPoolRunsOnCaller: a kernel that holds the pool while a Run
// issued from another goroutine has to return does not deadlock, and
// neither does a kernel that calls Run on its own pool; both inner Runs
// cover their index space.
func TestRunBusyPoolRunsOnCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	fromOther := &fillKernel{out: make([]float64, 100)}
	within(t, "a Run from another goroutine inside a kernel", func() {
		p.Run(2, kernelFunc(func(shard, _, _ int) {
			if shard == 0 {
				returned := make(chan struct{})
				go func() {
					p.Run(len(fromOther.out), fromOther)
					close(returned)
				}()
				<-returned
			}
		}))
	})
	nested := &fillKernel{out: make([]float64, 100)}
	within(t, "a nested Run", func() {
		p.Run(2, kernelFunc(func(shard, _, _ int) {
			if shard == 1 {
				p.Run(len(nested.out), nested)
			}
		}))
	})
	for _, k := range []*fillKernel{fromOther, nested} {
		for i, v := range k.out {
			if v != float64(2*i+1) {
				t.Fatalf("out[%d] = %v, want %v", i, v, 2*i+1)
			}
		}
	}
}

// recordKernel keeps every (shard, lo, hi) call it receives.
type recordKernel struct {
	mu    sync.Mutex
	calls [][3]int
}

func (k *recordKernel) Do(shard, lo, hi int) {
	k.mu.Lock()
	k.calls = append(k.calls, [3]int{shard, lo, hi})
	k.mu.Unlock()
}

// TestRunBusyPoolKeepsShardRanges: a Run that finds the pool busy calls
// Do with exactly the (shard, lo, hi) triples a dispatch gives its
// workers, shards with empty ranges left out, in shard order, and counts
// itself as contended.
func TestRunBusyPoolKeepsShardRanges(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{2, 3, 7, 101} {
			var want [][3]int
			for shard := range workers {
				if lo, hi := ShardRange(n, workers, shard); lo < hi {
					want = append(want, [3]int{shard, lo, hi})
				}
			}
			idle := &recordKernel{}
			p.Run(n, idle)
			sort.Slice(idle.calls, func(i, j int) bool { return idle.calls[i][0] < idle.calls[j][0] })
			if !slices.Equal(idle.calls, want) {
				t.Fatalf("workers=%d n=%d: dispatch called %v, want %v", workers, n, idle.calls, want)
			}
			release := hold(p)
			busy := &recordKernel{}
			before := ReadStats()
			within(t, "a Run on a busy pool", func() { p.Run(n, busy) })
			after := ReadStats()
			release()
			if !slices.Equal(busy.calls, want) {
				t.Fatalf("workers=%d n=%d: busy pool called %v, want %v", workers, n, busy.calls, want)
			}
			if after.Contended != before.Contended+1 || after.Dispatches != before.Dispatches {
				t.Errorf("workers=%d n=%d: busy Run moved contended %d → %d and dispatches %d → %d, want +1 and +0",
					workers, n, before.Contended, after.Contended, before.Dispatches, after.Dispatches)
			}
		}
		p.Close()
	}
}

// TestRunPanicSurfacesOnCaller: a kernel that panics on one shard, on a
// worker or on the caller, makes Run panic on the caller with that value
// once the other shards are done, and the next Run is a dispatch again.
func TestRunPanicSurfacesOnCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, bad := range []int{1, 0} {
		want := fmt.Sprintf("shard %d failed", bad)
		var other atomic.Bool
		func() {
			defer func() {
				if v := recover(); v != want {
					t.Errorf("Run panicked with %v, want %q", v, want)
				}
			}()
			p.Run(2, kernelFunc(func(shard, _, _ int) {
				if shard == bad {
					panic(want)
				}
				other.Store(true)
			}))
			t.Errorf("Run returned although shard %d panicked", bad)
		}()
		if !other.Load() {
			t.Errorf("shard %d panicked and the other shard did not run", bad)
		}
		k := &fillKernel{out: make([]float64, 64)}
		before := ReadStats()
		within(t, "the Run after a panic", func() { p.Run(len(k.out), k) })
		if after := ReadStats(); after.Dispatches != before.Dispatches+1 {
			t.Errorf("after a panic on shard %d the next Run was not dispatched: the pool stayed held", bad)
		}
		if k.out[63] != 127 {
			t.Errorf("the Run after a panic on shard %d did not cover its index space", bad)
		}
	}
}

func TestRunZeroAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	k := &fillKernel{out: make([]float64, 4096)}
	p.Run(len(k.out), k) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		p.Run(len(k.out), k)
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %v times per dispatch, want 0", allocs)
	}
}

func TestThresholdKnob(t *testing.T) {
	old := Threshold()
	defer SetThreshold(old)
	SetThreshold(123)
	if got := Threshold(); got != 123 {
		t.Fatalf("Threshold = %d, want 123", got)
	}
	SetThreshold(0)
	if got := Threshold(); got != DefaultThreshold {
		t.Fatalf("Threshold after reset = %d, want %d", got, DefaultThreshold)
	}
}

func TestDefaultPoolWorkers(t *testing.T) {
	p := Default()
	if p.Workers() < 1 || p.Workers() > runtime.GOMAXPROCS(0) {
		t.Fatalf("default pool has %d workers, GOMAXPROCS=%d", p.Workers(), runtime.GOMAXPROCS(0))
	}
	if q := Default(); q != p {
		t.Fatal("Default not idempotent")
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	k := &fillKernel{out: make([]float64, 10)}
	p.Run(10, k)
	if k.out[9] != 19 {
		t.Fatal("nil pool did not run kernel")
	}
}

// TestStatsPadded pins the padding around the pool counters: no other
// variable can share a cache line with them.
func TestStatsPadded(t *testing.T) {
	first, last := unsafe.Offsetof(stats.dispatches), unsafe.Offsetof(stats.busyNS)+unsafe.Sizeof(stats.busyNS)
	if first < 64 || unsafe.Sizeof(stats)-last < 64 {
		t.Errorf("counters at bytes [%d, %d) of %d, want 64 bytes of padding on each side", first, last, unsafe.Sizeof(stats))
	}
}
