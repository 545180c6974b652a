package par

import (
	"sync"
	"sync/atomic"
)

// FreeList is a mutex-guarded stack of idle objects of one kind: the
// program's one way to reuse state, from kernel descriptors to Krylov
// scratch and engine workspaces. Unlike a sync.Pool's per-P slots, an
// idle object is found from every goroutine and survives a GC. An object
// is made only when none is idle, so the list never holds more objects
// than it ever had concurrent holders, the count Made reports. The zero
// value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	idle []*T
	made atomic.Int64
}

// Pop takes an idle object off the list, or returns nil.
func (l *FreeList[T]) Pop() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

// Put puts x on the list for reuse.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.idle = append(l.idle, x)
	l.mu.Unlock()
}

// Get pops an idle object, or makes one with fresh when none is idle.
func (l *FreeList[T]) Get(fresh func() *T) *T {
	if x := l.Pop(); x != nil {
		return x
	}
	l.made.Add(1)
	return fresh()
}

// Made returns how many objects Get has made with fresh.
func (l *FreeList[T]) Made() int { return int(l.made.Load()) }
