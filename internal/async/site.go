package async

import (
	"fmt"

	"asyncmg/internal/engine"
	"asyncmg/internal/op"
	"asyncmg/internal/partition"
	"asyncmg/internal/smoother"
	"asyncmg/internal/vec"
)

// team is what the members of one goroutine team share while they execute
// the engine's level steps: the team barrier, every level's row split, and
// the team-blocked smoothers. A grid team (the additive solvers) spans the
// levels its correction touches; the Mult team spans the whole hierarchy.
type team struct {
	s      *engine.Engine
	bar    *Barrier
	ranges [][]partition.Range // ranges[k][tid]: member tid's rows of level k
	smo    []*smoother.S       // smo[k]: level k's smoother, one block per member
	// atom[k], when set, is the async-GS overlay level k's sweeps run over
	// (at least as long as the level), so teammates' writes are visible
	// mid-sweep; nil means plain block sweeps.
	atom []*vec.Atomic
}

// newTeam returns a team of m members that spans levels 0..top of s (the
// other levels' entries stay nil); level(k) says whether the team smooths
// on level k and over which async-GS overlay (nil for none).
func newTeam(s *engine.Engine, m, top int, level func(k int) (smooth bool, atom *vec.Atomic)) (team, error) {
	l := s.NumLevels()
	t := team{s: s, bar: NewBarrier(m), ranges: make([][]partition.Range, l),
		smo: make([]*smoother.S, l), atom: make([]*vec.Atomic, l)}
	for k := 0; k <= top; k++ {
		t.ranges[k] = partition.SplitRows(s.LevelSize(k), m)
		var smooth bool
		if smooth, t.atom[k] = level(k); smooth {
			sm, err := s.NewLevelSmoother(k, m)
			if err != nil {
				return team{}, fmt.Errorf("async: level %d smoother: %w", k, err)
			}
			t.smo[k] = sm
		}
	}
	return t, nil
}

// teamSite is one member of a team as an engine.Site: every step computes
// the member's rows with the Range kernels, then waits on the team
// barrier.
type teamSite struct {
	*team
	tid int
}

func (ts *teamSite) span(k int) (int, int) {
	rg := ts.ranges[k][ts.tid]
	return rg.Lo, rg.Hi
}

func (ts *teamSite) Residual(k int, r, b, x []float64) {
	lo, hi := ts.span(k)
	ts.s.Ops[k].ResidualRange(r, b, x, lo, hi)
	ts.bar.Wait()
}

func (ts *teamSite) ApplySub(k int, y, b, x []float64) {
	lo, hi := ts.span(k)
	ts.s.Ops[k].ApplyRange(y, x, lo, hi)
	for i := lo; i < hi; i++ {
		y[i] = b[i] - y[i]
	}
	ts.bar.Wait()
}

func (ts *teamSite) Restrict(t op.Interp, k int, rc, r []float64) {
	lo, hi := ts.span(k)
	t.ApplyTRange(rc, r, lo, hi)
	ts.bar.Wait()
}

func (ts *teamSite) Prolong(t op.Interp, k int, e, ec []float64, add bool) {
	lo, hi := ts.span(k)
	if add {
		t.ApplyAddRange(e, ec, lo, hi)
	} else {
		t.ApplyRange(e, ec, lo, hi)
	}
	ts.bar.Wait()
}

// Smooth is one team-parallel zero-guess sweep e = Λ r: each member
// zeroes its rows, then applies its own block or, over the async-GS
// overlay, sweeps in place from zero.
func (ts *teamSite) Smooth(k int, e, r []float64) {
	lo, hi := ts.span(k)
	for i := lo; i < hi; i++ {
		e[i] = 0
	}
	if ts.atom[k] != nil {
		ts.sweepAtomic(k, e, r)
		return
	}
	ts.bar.Wait()
	ts.smo[k].ApplyBlock(e, r, ts.tid)
	ts.bar.Wait()
}

// PostSmooth is one team-parallel sweep e ← e + Λ (r − A e): the
// residual of the frozen iterate, then each member's block update, or one
// in-place sweep over the async-GS overlay.
func (ts *teamSite) PostSmooth(k int, e, r, scratch []float64) {
	if ts.atom[k] != nil {
		ts.sweepAtomic(k, e, r)
		return
	}
	lo, hi := ts.span(k)
	ts.s.Ops[k].ResidualRange(scratch, r, e, lo, hi)
	ts.bar.Wait()
	ts.smo[k].SweepBlockFromResidual(e, scratch, ts.tid)
	ts.bar.Wait()
}

// sweepAtomic is one asynchronous GS sweep on A_k e = r in place, starting
// from e: through the overlay, every member sees its teammates' writes
// mid-sweep.
func (ts *teamSite) sweepAtomic(k int, e, r []float64) {
	lo, hi := ts.span(k)
	atom := ts.atom[k]
	atom.StoreRange(e, lo, hi)
	ts.bar.Wait()
	ts.smo[k].SweepBlockAtomic(atom, r, ts.tid)
	ts.bar.Wait()
	atom.LoadRange(e, lo, hi)
	ts.bar.Wait()
}

// CoarseSolve runs the factored solve on member 0 while the others wait,
// or without a factorization a team smoothing sweep.
func (ts *teamSite) CoarseSolve(e, r, scratch []float64) {
	if ts.s.H.Coarse == nil {
		ts.Smooth(len(ts.smo)-1, e, r)
		return
	}
	if ts.tid == 0 {
		ts.s.CoarseSolveScratch(e, r, scratch)
	}
	ts.bar.Wait()
}

func (ts *teamSite) Scale(k int, a float64, v []float64) {
	lo, hi := ts.span(k)
	for i := lo; i < hi; i++ {
		v[i] *= a
	}
	ts.bar.Wait()
}

func (ts *teamSite) Add(k int, y, x []float64) {
	lo, hi := ts.span(k)
	for i := lo; i < hi; i++ {
		y[i] += x[i]
	}
	ts.bar.Wait()
}
