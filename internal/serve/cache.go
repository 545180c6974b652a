package serve

import (
	"container/list"
	"sync"
	"time"

	"asyncmg/internal/engine"
	"asyncmg/internal/obs"
)

// entry is one cached AMG hierarchy. An entry is published in the cache
// before its setup has run; the first requester builds while later ones
// wait on ready (singleflight), so a burst of identical cold requests pays
// for exactly one setup.
type entry struct {
	key  string
	elem *list.Element

	// ready is closed when setup/err are final.
	ready chan struct{}
	setup *engine.Engine
	err   error
	// setupNS is the wall time the builder spent (hierarchy + smoothers);
	// cache hits report 0 because they pay nothing.
	setupNS int64
	rows    int
	// bytes is the resident hierarchy footprint (operators + interpolants
	// across all levels) — the number the float32 coarse option shrinks.
	bytes int
}

// cache is a bounded LRU of solver hierarchies keyed by problem identity
// (generator family+size+smoother, or uploaded-matrix fingerprint).
// Evicted entries stay usable by requests already holding them; they are
// simply no longer findable, and their memory goes when the last holder
// drops the pointer.
type cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*entry
	obs     *obs.Observer
}

func newCache(max int, o *obs.Observer) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, order: list.New(), entries: make(map[string]*entry), obs: o}
}

// getOrBuild returns the entry for key, building it with build on a miss.
// hit reports whether a cached (or in-flight) entry was found. The caller
// must wait on entry.ready before touching setup/err.
func (c *cache) getOrBuild(key string, build func() (*engine.Engine, error)) (e *entry, hit bool) {
	c.mu.Lock()
	if e = c.entries[key]; e != nil {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		if c.obs != nil {
			c.obs.CacheHits.Inc()
		}
		return e, true
	}
	e = &entry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		victim := oldest.Value.(*entry)
		c.order.Remove(oldest)
		delete(c.entries, victim.key)
		if c.obs != nil {
			c.obs.CacheEvictions.Inc()
		}
	}
	c.mu.Unlock()
	if c.obs != nil {
		c.obs.CacheMisses.Inc()
	}

	start := time.Now()
	setup, err := build()
	e.setupNS = time.Since(start).Nanoseconds()
	e.setup, e.err = setup, err
	if setup != nil {
		// Stage timings go to the setup_*_ns counters once per build.
		setup.SetObserver(c.obs)
		e.rows = setup.LevelSize(0)
		e.bytes = setup.HierarchyBytes()
	}
	if err != nil {
		// Don't cache failures: drop the entry so a later identical
		// request retries the build.
		c.mu.Lock()
		if c.entries[key] == e {
			c.order.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e, false
}

// len reports the number of cached entries (including in-flight builds).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
