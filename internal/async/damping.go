// Adaptive per-grid damping for the asynchronous additive solvers. Under
// heavy correction staleness the undamped cycle over-corrects — a grid
// that applies h corrections computed from the same stale residual
// effectively applies h·B_k, and the iteration diverges once the
// combined correction over-shoots — so each grid scales its applied
// correction by a factor ω_k ∈ (0, 1]. The controller (one per grid,
// run by the team's thread 0 between cycles) is stabilise-first,
// rollback-last:
//
//   - tighten: when a correction's observed staleness δ (the same value
//     recorded into the obs staleness histogram) exceeds the reference
//     δ₀, ω_k drops toward δ₀/δ — the staleness-proportional weight of
//     adaptive additive damping; when the grid's residual slab has grown
//     since its previous read refresh, ω_k is halved (defaultTighten).
//   - relax: when reads are fresh (δ ≤ δ₀) and the residual history is
//     healthy, ω_k is multiplied by defaultRelax (1.25), capped at the
//     policy maximum, so a transient stall does not permanently slow
//     convergence.
//   - rollback-last: only if the residual still blows past the
//     divergence threshold is the solve aborted and the iterate
//     discarded (Result.RolledBack) — the defense that used to be the
//     only one.
package async

import (
	"fmt"
	"math"
)

// DampMode selects the correction-damping policy.
type DampMode int

const (
	// DampOff applies corrections undamped (ω = 1), exactly as the
	// undamped solver always has.
	DampOff DampMode = iota
	// DampFixed scales every correction by the constant Omega.
	DampFixed
	// DampAuto runs the adaptive controller: ω_k starts at Omega and
	// moves per grid with observed staleness and residual health.
	DampAuto
)

func (m DampMode) String() string {
	switch m {
	case DampFixed:
		return "damp-fixed"
	case DampAuto:
		return "damp-auto"
	}
	return "damp-off"
}

// DampingPolicy parameterizes the per-grid correction damping of an
// additive solve. The zero value is DampOff with no rollback guard —
// bit-for-bit the historical behavior.
type DampingPolicy struct {
	// Mode selects off / fixed / auto.
	Mode DampMode
	// Omega is the damping factor: the constant factor for DampFixed,
	// and the starting and maximum factor for DampAuto (0 means 1).
	Omega float64
	// MinOmega floors the adaptive factor (0 means 0.05). DampAuto only.
	MinOmega float64
	// StalenessRef is δ₀, the read age (in globally applied corrections)
	// at or below which a read counts as fresh; staler reads tighten ω
	// toward StalenessRef/δ. 0 means the number of grids — one full
	// round of everyone else correcting once. DampAuto only.
	StalenessRef int64
	// Rollback arms the rollback-last defense: each grid's thread 0
	// monitors its refreshed residual slab, and when it blows past the
	// divergence threshold the solve aborts, the iterate is discarded,
	// and Result.RolledBack is set. Valid with any mode — with DampOff
	// it reproduces the detect-and-discard defense that damping
	// replaces as the first line.
	Rollback bool
}

// Controller constants: the MinOmega default (see resolve), and the
// factors ω is multiplied by when the grid's residual history degrades
// between read refreshes (defaultTighten) and on fresh, healthy cycles
// (defaultRelax, back toward Omega). DampAuto only.
const (
	defaultMinOmega = 0.05
	defaultTighten  = 0.5
	defaultRelax    = 1.25
	// proxyGrowTol is how much a grid's residual slab may grow between
	// read refreshes before the controller calls the history degraded
	// (5% headroom over strict monotonicity absorbs mixed-age noise).
	proxyGrowTol = 1.05
)

// resolve fills defaults (grids is the hierarchy depth, the δ₀ default)
// and returns the ready-to-run policy. Call after validate.
func (p DampingPolicy) resolve(grids int) DampingPolicy {
	if p.Omega == 0 {
		p.Omega = 1
	}
	if p.MinOmega == 0 {
		p.MinOmega = defaultMinOmega
	}
	if p.MinOmega > p.Omega {
		p.MinOmega = p.Omega
	}
	if p.StalenessRef == 0 {
		p.StalenessRef = int64(grids)
	}
	return p
}

// Validate rejects malformed policies (NaN/Inf factors, out-of-range
// bounds). Zero fields mean "use the default" and are always valid.
// Solve validates on its own; the export is for request-decoding layers
// (the serve API) that must reject bad policies before any work starts.
func (p DampingPolicy) Validate() error { return p.validate() }

func (p DampingPolicy) validate() error {
	switch p.Mode {
	case DampOff, DampFixed, DampAuto:
	default:
		return fmt.Errorf("async: unknown damping mode %d", int(p.Mode))
	}
	if p.Mode == DampFixed && p.Omega == 0 {
		return fmt.Errorf("async: fixed damping requires an explicit Omega")
	}
	if bad(p.Omega) || p.Omega < 0 || p.Omega > 1 {
		return fmt.Errorf("async: damping Omega must be in (0, 1], got %v", p.Omega)
	}
	if bad(p.MinOmega) || p.MinOmega < 0 || p.MinOmega > 1 {
		return fmt.Errorf("async: damping MinOmega must be in (0, 1], got %v", p.MinOmega)
	}
	if p.Omega != 0 && p.MinOmega > p.Omega {
		return fmt.Errorf("async: damping MinOmega %v exceeds Omega %v", p.MinOmega, p.Omega)
	}
	if p.StalenessRef < 0 {
		return fmt.Errorf("async: damping StalenessRef must be >= 0, got %d", p.StalenessRef)
	}
	return nil
}

// bad reports a non-zero value that is NaN or infinite (zero always
// means "default" and is fine).
func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// initialOmega is the factor every grid starts (and, for off/fixed,
// stays) at.
func (p DampingPolicy) initialOmega() float64 {
	switch p.Mode {
	case DampFixed, DampAuto:
		if p.Omega == 0 {
			return 1
		}
		return p.Omega
	}
	return 1
}

// Perturb injects deterministic read-delay adversity into an
// asynchronous additive solve, for the staleness-sweep harness and the
// stabilisation acceptance tests. The zero value injects nothing. A
// grid with hold h refreshes its read of the shared state (x and the
// residual) only once per h of its own corrections, so it applies h
// corrections computed from the same stale read — the mechanism by
// which slow readers and oversubscribed pools destabilise the undamped
// cycle, made reproducible.
type Perturb struct {
	// ReadHold is every grid's refresh period in own-corrections
	// (0 or 1: refresh every correction, no injection).
	ReadHold int
	// Stragglers lists grid indices whose hold is StragglerHold
	// instead of ReadHold.
	Stragglers []int
	// StragglerHold is the refresh period for straggler grids
	// (0 means 4×max(ReadHold, 2)).
	StragglerHold int
}

// validate rejects malformed perturbations for a solve over `grids`
// grids.
func (p Perturb) validate(grids int) error {
	if p.ReadHold < 0 {
		return fmt.Errorf("async: Perturb.ReadHold must be >= 0, got %d", p.ReadHold)
	}
	if p.StragglerHold < 0 {
		return fmt.Errorf("async: Perturb.StragglerHold must be >= 0, got %d", p.StragglerHold)
	}
	for _, k := range p.Stragglers {
		if k < 0 || k >= grids {
			return fmt.Errorf("async: Perturb straggler grid %d out of range [0, %d)", k, grids)
		}
	}
	return nil
}

// holdFor returns grid k's refresh period (always >= 1).
func (p Perturb) holdFor(k int) int {
	h := p.ReadHold
	for _, s := range p.Stragglers {
		if s == k {
			h = p.StragglerHold
			if h == 0 {
				base := p.ReadHold
				if base < 2 {
					base = 2
				}
				h = 4 * base
			}
			break
		}
	}
	if h < 1 {
		h = 1
	}
	return h
}

// ---- the per-grid controller (thread 0 of each team only) ----

// checkHealth runs at every read refresh, after the grid's residual
// slab was recomputed: it samples the thread-0 slab's squared norm as a
// residual-health proxy, arms the rollback guard, and (auto mode) moves
// ω on the refresh-to-refresh trend — any growth beyond proxyGrowTol
// tightens ω by defaultTighten (a geometric search for the stable factor:
// while the residual keeps growing, ω keeps halving), while a shrinking
// slab relaxes ω by defaultRelax back toward the policy maximum. Relaxing only
// here, once per refresh and only on observed progress, is what keeps a
// persistently stale grid from talking itself back up to an unstable ω
// between tightens. Only thread-0-private state and the pending
// nextOmega are written; the team-visible omega is published at the
// next cycle-top barrier.
func (g *gridRun) checkHealth() {
	rt := g.rt
	fr := g.ranges[0][0]
	proxy := 0.0
	for i := fr.Lo; i < fr.Hi; i++ {
		proxy += g.rk[i] * g.rk[i]
	}
	if rt.damp.Rollback && (math.IsNaN(proxy) || proxy > rt.guardLimit) {
		// Rollback-last: the residual blew past the divergence
		// threshold despite any damping; abort every team and discard
		// the iterate.
		rt.abort.Store(true)
	}
	if rt.auto {
		p := rt.damp
		switch {
		case g.lastProxy > 0 && proxy > g.lastProxy*proxyGrowTol:
			g.healthy = false
			g.tightenOmega(g.nextOmega * defaultTighten)
		case g.lastProxy > 0 && proxy < g.lastProxy:
			g.healthy = true
			if g.nextOmega < p.Omega {
				w := g.nextOmega * defaultRelax
				if w > p.Omega {
					w = p.Omega
				}
				g.nextOmega = w
				g.relaxes++
				rt.cfg.Observer.DampRelaxed(g.k, w)
			}
		default:
			// First sample, or flat within tolerance: hold ω.
			g.healthy = g.lastProxy == 0
		}
		g.lastProxy = proxy
	}
}

// adaptOmega runs after each applied correction with its observed
// staleness delta — the same δ recorded into the obs histogram: a read
// staler than the reference δ₀ pulls ω down toward the
// staleness-proportional weight δ₀/δ immediately, without waiting for
// the residual to degrade. Relaxing back up is checkHealth's job.
func (g *gridRun) adaptOmega(delta int64) {
	p := g.rt.damp
	if delta > p.StalenessRef {
		g.tightenOmega(float64(p.StalenessRef) / float64(delta))
	}
}

// tightenOmega lowers the pending ω to target (floored at MinOmega),
// recording the event if it actually moved.
func (g *gridRun) tightenOmega(target float64) {
	p := g.rt.damp
	if target < p.MinOmega {
		target = p.MinOmega
	}
	if target < g.nextOmega {
		g.nextOmega = target
		g.tightens++
		g.rt.cfg.Observer.DampTightened(g.k, target)
	}
}
