package cluster

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Membership: the router health-checks every configured node and routes
// only to the ready ones. Liveness and readiness are distinct signals
// with distinct consequences — a node that fails its probe outright
// (transport error) is dead or partitioned; a node that answers /readyz
// with 503 is alive but draining and must leave the ring gracefully,
// with its in-flight work allowed to finish. Either way the ready set
// changes and the ring is rebuilt, which is the only mechanism by which
// shards move: kill, partition, drain and recovery all funnel through
// the same rebuild.

// Node identifies one mgserve peer. ID is the stable ring identity (it
// determines shard placement and survives restarts); Addr is what the
// router dials. ID defaults to Addr.
type Node struct {
	ID   string
	Addr string
}

// nodeState is the router's view of one node.
type nodeState struct {
	node    Node
	ready   atomic.Bool
	live    atomic.Bool
	breaker *breaker
}

// probeLoop re-probes membership every ProbeInterval until Close.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.probeAll()
		case <-rt.done:
			return
		}
	}
}

// probeAll runs one synchronous membership probe round, rebuilding the
// ring if the ready set changed. The background prober calls it on a
// timer; tests call it to make membership transitions deterministic
// instead of waiting out a tick.
func (rt *Router) probeAll() {
	// One round at a time: a test's round racing the ticker must not double-count
	// rebuilds or interleave transition handling.
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	var mask uint64
	for i, ns := range rt.nodes {
		ready := rt.probe(ns)
		was := ns.ready.Swap(ready)
		if ready {
			mask |= 1 << uint(i)
			if !was {
				// Not-ready → ready: the node may have restarted with a cold
				// cache. Close its breaker so traffic returns immediately,
				// and forget which keys were warmed there so replication
				// re-pushes them.
				ns.breaker.reset()
				rt.clearWarm(i)
			}
		}
	}
	rt.mu.Lock()
	rebuild := rt.ring == nil || mask != rt.memberMask
	rt.mu.Unlock()
	if rebuild {
		rt.rebuildRing(mask)
	}
}

// probeTimeout bounds one readiness probe.
const probeTimeout = 500 * time.Millisecond

// probe checks one node's /readyz. A transport error means not live (and
// counts as a probe failure); a 503 means alive but draining. Only a 200
// makes the node routable.
func (rt *Router) probe(ns *nodeState) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ns.node.Addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		ns.live.Store(false)
		rt.o.ProbeFailures.Inc()
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	ns.live.Store(true)
	return resp.StatusCode == http.StatusOK
}

// rebuildRing recomputes the ring from the ready mask.
func (rt *Router) rebuildRing(mask uint64) {
	ids := make([]string, len(rt.nodes))
	members := make([]int, 0, len(rt.nodes))
	for i, ns := range rt.nodes {
		ids[i] = ns.node.ID
		if mask&(1<<uint(i)) != 0 {
			members = append(members, i)
		}
	}
	r := buildRing(ids, members)
	rt.mu.Lock()
	rt.ring = r
	rt.memberMask = mask
	rt.mu.Unlock()
	rt.o.RingRebuilds.Inc()
}

// Owners returns the current replication set for key: the primary first,
// then the failover candidates.
func (rt *Router) Owners(key string) []int {
	rt.mu.RLock()
	r := rt.ring
	rt.mu.RUnlock()
	return r.owners(key, rt.cfg.Replicas)
}
