package par

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListReuses: Pop on an empty list returns nil, Get makes an
// object only when none is idle, and a Put object is the next one handed
// out, after GCs too.
func TestFreeListReuses(t *testing.T) {
	var l FreeList[int]
	if x := l.Pop(); x != nil {
		t.Fatalf("Pop on an empty list returned %p, want nil", x)
	}
	fresh := func() *int { return new(int) }
	x := l.Get(fresh)
	if l.Made() != 1 {
		t.Fatalf("Made = %d after one Get on an empty list, want 1", l.Made())
	}
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if got := l.Get(fresh); got != x {
		t.Error("Get after two GCs did not return the idle object")
	}
	if l.Made() != 1 {
		t.Errorf("Made = %d after reusing the idle object, want 1", l.Made())
	}
	if x := l.Pop(); x != nil {
		t.Errorf("Pop with every object held returned %p, want nil", x)
	}
}

// TestFreeListConcurrent: holders goroutines getting and putting at once
// make at most one object each, and every object is idle once they have
// all put theirs back.
func TestFreeListConcurrent(t *testing.T) {
	const holders = 4
	var l FreeList[[64]byte]
	var wg sync.WaitGroup
	for g := 0; g < holders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := l.Get(func() *[64]byte { return new([64]byte) })
				x[0]++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if made := l.Made(); made < 1 || made > holders {
		t.Errorf("%d holders made %d objects, want 1 to %d", holders, made, holders)
	}
	if got := len(l.idle); got != l.Made() {
		t.Errorf("%d of %d objects idle after every holder put its back", got, l.Made())
	}
}
