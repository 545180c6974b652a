// Package faulttest is the HTTP face of the fault substrate, for tests: an
// http.RoundTripper that injects the failure modes a routing tier sees
// when forwarding solves across an mgserve fleet — killed nodes
// (connection refused, and in-flight responses lost), network partitions,
// per-node stragglers, and random request loss. Like fault's message
// transport, every random decision is a pure function of (seed, host,
// attempt), so a cluster acceptance run replays identically for a given
// seed. The mutable state (which nodes are down, partitioned or
// straggling) is driven explicitly by the test, which is what makes "kill
// node 0 at request 100" a deterministic scenario rather than a timing
// accident. No binary links this package.
package faulttest

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"asyncmg/internal/fault"
)

// HTTPConfig parameterizes the random faults of an HTTP chaos transport.
// The zero value injects nothing; kills, partitions and stragglers are
// driven through the HTTPChaos methods instead.
type HTTPConfig struct {
	// Seed determines the drop/delay schedule (per host, per attempt).
	Seed int64
	// DropRate is the probability a request fails with a transport error
	// before reaching the node.
	DropRate float64
	// BaseDelay is a fixed latency added to every request (0 = none).
	BaseDelay time.Duration
	// DelayRate is the probability a request receives an extra random
	// delay in (0, ExtraDelay].
	DelayRate float64
	// ExtraDelay bounds the additional random delay.
	ExtraDelay time.Duration
}

// HTTPStats snapshots the chaos counters.
type HTTPStats struct {
	// Requests counts round trips attempted through the chaos layer.
	Requests int64
	// Refused counts requests rejected because the target was down or
	// partitioned (the connection never happened).
	Refused int64
	// Resets counts responses lost because the target was killed while
	// the request was in flight.
	Resets int64
	// Dropped counts requests lost to the random DropRate.
	Dropped int64
	// Delayed counts requests that received an extra random delay.
	Delayed int64
}

// HTTPChaos wraps an http.RoundTripper with deterministic fault
// injection keyed by target host. It implements http.RoundTripper, so a
// cluster router (or its health prober) pointed at it experiences crashes,
// partitions and stragglers without any real process being harmed.
type HTTPChaos struct {
	cfg  HTTPConfig
	next http.RoundTripper

	mu          sync.RWMutex
	down        map[string]bool
	partitioned map[string]bool
	straggle    map[string]time.Duration
	attempts    map[string]*atomic.Int64

	requests, refused, resets, dropped, delayed atomic.Int64
}

// NewHTTPChaos wraps next (http.DefaultTransport when nil) with fault
// injection. The zero cfg injects nothing until Kill/Partition/Straggle
// are called.
func NewHTTPChaos(cfg HTTPConfig, next http.RoundTripper) *HTTPChaos {
	if next == nil {
		next = http.DefaultTransport
	}
	return &HTTPChaos{
		cfg:         cfg,
		next:        next,
		down:        make(map[string]bool),
		partitioned: make(map[string]bool),
		straggle:    make(map[string]time.Duration),
		attempts:    make(map[string]*atomic.Int64),
	}
}

// hostError is the transport error surfaced for severed hosts; it mimics
// a connection failure (net/http wraps it in *url.Error like any dial
// error).
type hostError struct {
	host, mode string
}

func (e *hostError) Error() string { return fmt.Sprintf("fault: %s: node %s", e.mode, e.host) }

// Kill marks host as dead: new requests are refused and responses of
// requests already in flight are lost (a crash mid-solve, not a drain).
func (c *HTTPChaos) Kill(host string) {
	c.mu.Lock()
	c.down[host] = true
	c.mu.Unlock()
}

// Restart clears a kill; the node is reachable again (whatever state the
// registered handler has — a fresh handler models a real restart).
func (c *HTTPChaos) Restart(host string) {
	c.mu.Lock()
	delete(c.down, host)
	c.mu.Unlock()
}

// Partition severs the listed hosts: requests to them fail like a network
// split. Cumulative; Heal clears every partition.
func (c *HTTPChaos) Partition(hosts ...string) {
	c.mu.Lock()
	for _, h := range hosts {
		c.partitioned[h] = true
	}
	c.mu.Unlock()
}

// Heal clears all partitions (kills stay until Restart).
func (c *HTTPChaos) Heal() {
	c.mu.Lock()
	c.partitioned = make(map[string]bool)
	c.mu.Unlock()
}

// Straggle adds a fixed delay to every request to host (0 clears it),
// modelling a persistently slow node — the hedging trigger.
func (c *HTTPChaos) Straggle(host string, d time.Duration) {
	c.mu.Lock()
	if d <= 0 {
		delete(c.straggle, host)
	} else {
		c.straggle[host] = d
	}
	c.mu.Unlock()
}

// severed reports whether host is currently unreachable.
func (c *HTTPChaos) severed(host string) (bool, string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.down[host] {
		return true, "killed"
	}
	if c.partitioned[host] {
		return true, "partitioned"
	}
	return false, ""
}

// attempt returns the per-host attempt counter, creating it on first use.
func (c *HTTPChaos) attempt(host string) int64 {
	c.mu.RLock()
	a := c.attempts[host]
	c.mu.RUnlock()
	if a == nil {
		c.mu.Lock()
		if a = c.attempts[host]; a == nil {
			a = &atomic.Int64{}
			c.attempts[host] = a
		}
		c.mu.Unlock()
	}
	return a.Add(1)
}

const (
	saltHTTPDrop = iota + 16
	saltHTTPDelay
	saltHTTPJitter
)

// hostSalt folds a host name into one salt word (FNV-1a).
func hostSalt(host string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h
}

// RoundTrip applies the fault schedule, forwards to the wrapped transport,
// and loses the response if the target was killed while in flight.
func (c *HTTPChaos) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	c.requests.Add(1)
	if cut, mode := c.severed(host); cut {
		c.refused.Add(1)
		return nil, &hostError{host: host, mode: mode}
	}
	hs := hostSalt(host)
	attempt := c.attempt(host)
	if c.cfg.DropRate > 0 && fault.Jitter01(c.cfg.Seed, hs, uint64(attempt), saltHTTPDrop) < c.cfg.DropRate {
		c.dropped.Add(1)
		return nil, &hostError{host: host, mode: "dropped"}
	}
	c.mu.RLock()
	delay := c.cfg.BaseDelay + c.straggle[host]
	c.mu.RUnlock()
	if c.cfg.DelayRate > 0 && c.cfg.ExtraDelay > 0 &&
		fault.Jitter01(c.cfg.Seed, hs, uint64(attempt), saltHTTPDelay) < c.cfg.DelayRate {
		c.delayed.Add(1)
		delay += time.Duration(fault.Jitter01(c.cfg.Seed, hs, uint64(attempt), saltHTTPJitter) * float64(c.cfg.ExtraDelay))
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// A kill that landed while the request was in flight loses the
	// response: the caller sees a reset, exactly like a process dying
	// mid-solve.
	if cut, _ := c.severed(host); cut {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.resets.Add(1)
		return nil, &hostError{host: host, mode: "reset"}
	}
	return resp, nil
}

// Stats snapshots the chaos counters.
func (c *HTTPChaos) Stats() HTTPStats {
	return HTTPStats{
		Requests: c.requests.Load(),
		Refused:  c.refused.Load(),
		Resets:   c.resets.Load(),
		Dropped:  c.dropped.Load(),
		Delayed:  c.delayed.Load(),
	}
}
