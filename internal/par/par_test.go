package par

import (
	"runtime"
	"sync"
	"testing"
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

func TestRunConcurrentCallersSerialize(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := &fillKernel{out: make([]float64, 512)}
			for it := 0; it < 50; it++ {
				p.Run(len(k.out), k)
			}
		}()
	}
	wg.Wait()
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
