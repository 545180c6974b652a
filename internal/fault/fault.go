// Package fault is a deterministic fault-injection message transport for
// the distributed-memory multigrid simulation. It carries the two message
// flows of internal/distmem — owner→worker residual snapshots (newest-wins
// mailboxes) and worker→owner corrections (a FIFO queue) — and injects the
// failure modes a production deployment of the paper's distributed
// asynchronous multigrid would face: dropped, duplicated and reordered
// messages, per-message latency with jitter, per-worker stragglers,
// scheduled worker crashes, and permanently dead grids.
//
// Every fault decision is a pure function of (seed, link, attempt number),
// so a given send sequence replays identically for a given seed regardless
// of wall-clock timing: the drop/duplicate/delay schedule is a property of
// the configuration, not of the scheduler. Delayed deliveries run on
// tracked goroutines; Close cancels and drains all of them, so no delivery
// can land in a mailbox after the transport is closed (the cure for the
// delayed-goroutine leak the raw-channel implementation had).
package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes the injected faults. The zero value is a perfect
// network: no loss, no duplication, no delay, no crashes.
type Config struct {
	// Seed determines the whole fault schedule. Two transports with equal
	// configs see identical per-link decision sequences.
	Seed int64
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// DelayRate is the probability a message receives an extra random
	// delay in (0, ExtraDelay] on top of BaseDelay — the reordering
	// mechanism: a delayed message can be overtaken by later sends.
	DelayRate float64
	// BaseDelay is the fixed interconnect latency applied to every
	// message (0 = none).
	BaseDelay time.Duration
	// ExtraDelay bounds the additional random delay of DelayRate-selected
	// messages.
	ExtraDelay time.Duration
	// Straggler adds a fixed extra delay to every message to or from the
	// given worker, modelling a persistently slow node.
	Straggler map[int]time.Duration
	// CrashAt schedules worker k to crash immediately before computing
	// correction CrashAt[k]. Each scheduled crash fires exactly once (a
	// respawned worker does not re-crash at the same point).
	CrashAt map[int]int
	// DeadGrids lists grids whose links are permanently severed: every
	// message to or from them is dropped. The owner's watchdog is
	// expected to eventually retire them.
	DeadGrids []int
}

// Stats is a snapshot of the transport's fault counters.
type Stats struct {
	// Drops counts messages lost by the transport (including all traffic
	// of dead grids).
	Drops int64
	// Duplicates counts messages the transport delivered twice.
	Duplicates int64
	// Delayed counts messages that received an extra reordering delay.
	Delayed int64
	// StaleDrops counts snapshots overwritten in a newest-wins mailbox
	// before being read — the message-passing measure of asynchrony.
	StaleDrops int64
	// Crashes counts scheduled worker crashes that fired.
	Crashes int64
}

// Msg is a transport message: an opaque payload tagged with the sending
// endpoint and a sequence number (newest-wins delivery keeps the highest
// sequence).
type Msg struct {
	From    int
	Seq     int64
	Payload any
}

// Transport carries owner↔worker traffic for a fixed set of workers.
type Transport struct {
	cfg     Config
	workers int

	down []chan Msg // per-worker newest-wins mailbox (capacity 1)
	up   chan Msg   // worker→owner FIFO

	// attempts[link] counts sends on each link; the fault decision for a
	// send is hash(seed, link, attempt). Down-links are 0..workers-1,
	// up-links workers..2*workers-1.
	attempts []atomic.Int64

	drops, dups, delayed, staleDrops, crashes atomic.Int64

	crashed []atomic.Bool // one-shot latches for CrashAt
	dead    []bool

	done chan struct{}
	// mu orders sends against Close: a send holds the read lock while it
	// checks closed and registers its delivery goroutine, so Close's
	// wg.Wait never races a wg.Add and no delivery starts after Close.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// New creates a transport for the given number of workers.
func New(cfg Config, workers int) *Transport {
	t := &Transport{
		cfg:      cfg,
		workers:  workers,
		down:     make([]chan Msg, workers),
		up:       make(chan Msg, 4*workers),
		attempts: make([]atomic.Int64, 2*workers),
		crashed:  make([]atomic.Bool, workers),
		dead:     make([]bool, workers),
		done:     make(chan struct{}),
	}
	for k := range t.down {
		t.down[k] = make(chan Msg, 1)
	}
	for _, k := range cfg.DeadGrids {
		if k >= 0 && k < workers {
			t.dead[k] = true
		}
	}
	return t
}

// splitmix64 is the finalizer of the SplitMix64 generator: a strong enough
// mixer to derive independent uniform deviates from (seed, link, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Jitter01 returns a uniform deviate in [0,1) that is a pure function of
// (seed, salts...): the same chain of SplitMix64 mixes the transport uses
// for its fault schedule, exported so other randomized-but-reproducible
// mechanisms (the distmem watchdog's backoff jitter, the cluster router's
// retry jitter) desynchronize without losing per-seed replayability.
func Jitter01(seed int64, salts ...uint64) float64 {
	h := splitmix64(uint64(seed))
	for _, s := range salts {
		h = splitmix64(h ^ s)
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// roll returns a uniform deviate in [0,1) determined by the link, the
// attempt number on that link, and a salt distinguishing the decision kind.
func (t *Transport) roll(link int, attempt int64, salt uint64) float64 {
	return Jitter01(t.cfg.Seed, uint64(link), uint64(attempt), salt)
}

const (
	saltDrop = iota + 1
	saltDup
	saltDelay
	saltJitter
)

// SendDown posts a snapshot toward worker k's newest-wins mailbox, subject
// to the fault schedule. Never blocks the caller beyond mailbox
// replacement.
func (t *Transport) SendDown(k int, m Msg) {
	t.send(k, k, m, func(m Msg) { t.deliverDown(k, m) })
}

// SendUp posts worker k's message toward the owner queue, subject to the
// fault schedule. A zero-delay delivery may block until the owner reads or
// the transport closes.
func (t *Transport) SendUp(k int, m Msg) {
	t.send(t.workers+k, k, m, t.deliverUp)
}

func (t *Transport) send(link, worker int, m Msg, deliver func(Msg)) {
	// The read lock covers the fault decisions and the wg.Add of delayed
	// deliveries so Close's wg.Wait never races a wg.Add; it is released
	// before any (possibly blocking) inline delivery, which synchronizes
	// with Close through the done channel instead.
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return // shutting down: discard silently, keep counters stable
	}
	if t.dead[worker] {
		t.drops.Add(1)
		t.mu.RUnlock()
		return
	}
	attempt := t.attempts[link].Add(1)
	if t.cfg.DropRate > 0 && t.roll(link, attempt, saltDrop) < t.cfg.DropRate {
		t.drops.Add(1)
		t.mu.RUnlock()
		return
	}
	copies := 1
	if t.cfg.DupRate > 0 && t.roll(link, attempt, saltDup) < t.cfg.DupRate {
		t.dups.Add(1)
		copies = 2
	}
	delay := t.cfg.BaseDelay + t.cfg.Straggler[worker]
	if t.cfg.DelayRate > 0 && t.cfg.ExtraDelay > 0 &&
		t.roll(link, attempt, saltDelay) < t.cfg.DelayRate {
		t.delayed.Add(1)
		delay += time.Duration(t.roll(link, attempt, saltJitter) * float64(t.cfg.ExtraDelay))
	}
	inline := 0
	for i := 0; i < copies; i++ {
		if delay <= 0 {
			inline++
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			timer := time.NewTimer(delay)
			defer timer.Stop()
			select {
			case <-timer.C:
				deliver(m)
			case <-t.done:
			}
		}()
	}
	t.mu.RUnlock()
	for i := 0; i < inline; i++ {
		deliver(m)
	}
}

// deliverDown places m in worker k's capacity-1 mailbox, keeping
// whichever of the incumbent and m has the higher sequence number
// (newest-wins; a delayed snapshot can never displace a fresher one).
func (t *Transport) deliverDown(k int, m Msg) {
	box := t.down[k]
	for {
		select {
		case box <- m:
			return
		case <-t.done:
			return
		default:
		}
		select {
		case cur := <-box:
			t.staleDrops.Add(1)
			if cur.Seq > m.Seq {
				m = cur
			}
		default:
		}
	}
}

// deliverUp enqueues m for the owner, giving up if the transport closes
// while the queue is full (the owner has stopped reading).
func (t *Transport) deliverUp(m Msg) {
	select {
	case t.up <- m:
	case <-t.done:
	}
}

// Down returns worker k's mailbox.
func (t *Transport) Down(k int) <-chan Msg { return t.down[k] }

// Up returns the owner's correction queue.
func (t *Transport) Up() <-chan Msg { return t.up }

// UpBacklog reports how many undelivered messages sit in the owner queue.
func (t *Transport) UpBacklog() int { return len(t.up) }

// CrashNow reports whether worker k, about to compute correction it, is
// scheduled to crash here. Each scheduled crash fires exactly once, so a
// respawned worker passes the same point unharmed.
func (t *Transport) CrashNow(k, it int) bool {
	at, ok := t.cfg.CrashAt[k]
	if !ok || at != it {
		return false
	}
	if t.crashed[k].CompareAndSwap(false, true) {
		t.crashes.Add(1)
		return true
	}
	return false
}

// Dead reports whether grid k's links are permanently severed.
func (t *Transport) Dead(k int) bool { return t.dead[k] }

// Close severs the transport and waits for every in-flight delayed
// delivery goroutine to finish, guaranteeing that nothing is delivered
// after Close returns. Safe to call more than once.
func (t *Transport) Close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.done)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Drops:      t.drops.Load(),
		Duplicates: t.dups.Load(),
		Delayed:    t.delayed.Load(),
		StaleDrops: t.staleDrops.Load(),
		Crashes:    t.crashes.Load(),
	}
}
