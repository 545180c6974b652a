package serve

import (
	"errors"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/smoother"
)

// TestCacheContainsBuildPanic: a build that panics on a miss fails its
// entry with errSetupPanic, closes ready and drops the entry, so the next
// request for the same key builds again and gets an engine instead of
// waiting on a ready channel nothing will close.
func TestCacheContainsBuildPanic(t *testing.T) {
	c := newCache(4, nil)
	wait := func(e *entry) {
		t.Helper()
		select {
		case <-e.ready:
		case <-time.After(10 * time.Second):
			t.Fatal("entry never became ready")
		}
	}
	e, hit := c.getOrBuild("k", func() (*engine.Engine, error) { panic("boom") })
	wait(e)
	if hit || !errors.Is(e.err, errSetupPanic) || e.setup != nil {
		t.Fatalf("panicking build: hit=%v err=%v setup=%v, want a miss failing with errSetupPanic", hit, e.err, e.setup)
	}
	if n := c.len(); n != 0 {
		t.Fatalf("%d entries cached after a panicking build, want 0", n)
	}
	e, hit = c.getOrBuild("k", func() (*engine.Engine, error) {
		return engine.New(grid.Laplacian7pt(6), amg.DefaultOptions(), smoother.DefaultConfig())
	})
	wait(e)
	if hit || e.err != nil || e.setup == nil {
		t.Fatalf("rebuild: hit=%v err=%v setup=%v, want a fresh engine", hit, e.err, e.setup)
	}
}
