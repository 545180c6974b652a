package smoother

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"asyncmg/internal/grid"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

func lap1d(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func allKinds() []Config {
	return []Config{
		{Kind: WJacobi, Omega: 0.9, Blocks: 4},
		{Kind: L1Jacobi, Blocks: 4},
		{Kind: HybridJGS, Blocks: 4},
		{Kind: AsyncGS, Blocks: 4},
	}
}

func TestNewValidation(t *testing.T) {
	a := lap1d(10)
	if _, err := New(a, Config{Kind: WJacobi, Omega: 0}); err == nil {
		t.Error("accepted zero omega")
	}
	if _, err := New(a, Config{Kind: WJacobi, Omega: 3}); err == nil {
		t.Error("accepted omega > 2")
	}
	if _, err := New(a, Config{Kind: Kind(99)}); err == nil {
		t.Error("accepted unknown kind")
	}
	coo := sparse.NewCOO(2, 3, 1)
	coo.Add(0, 0, 1)
	if _, err := New(coo.ToCSR(), DefaultConfig()); err == nil {
		t.Error("accepted non-square matrix")
	}
	// Zero diagonal rejected for Jacobi.
	z := sparse.NewCOO(2, 2, 2)
	z.Add(0, 1, 1)
	z.Add(1, 0, 1)
	if _, err := New(z.ToCSR(), Config{Kind: WJacobi, Omega: 1}); err == nil {
		t.Error("accepted zero diagonal")
	}
}

func TestMoreBlocksThanRows(t *testing.T) {
	// Surplus blocks must exist as empty no-ops: team runtimes index
	// blocks by thread id even on levels smaller than the team.
	a := lap1d(3)
	s, err := New(a, Config{Kind: HybridJGS, Blocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 10 {
		t.Fatalf("blocks = %d, want 10", s.NumBlocks())
	}
	e := make([]float64, 3)
	r := []float64{2, 2, 2}
	for b := 0; b < 10; b++ {
		s.ApplyBlock(e, r, b) // must not panic on empty blocks
	}
	want := make([]float64, 3)
	full, err := New(a, Config{Kind: HybridJGS, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	full.Apply(want, r)
	for i := range e {
		if e[i] != want[i] {
			t.Fatalf("surplus-block apply differs at %d: %v vs %v", i, e[i], want[i])
		}
	}
}

func TestApplyJacobiExact(t *testing.T) {
	a := lap1d(5)
	s, err := New(a, Config{Kind: WJacobi, Omega: 0.8, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{2, 4, -2, 6, 0}
	e := make([]float64, 5)
	s.Apply(e, r)
	for i := range e {
		want := 0.8 * r[i] / 2
		if math.Abs(e[i]-want) > 1e-15 {
			t.Errorf("e[%d] = %v, want %v", i, e[i], want)
		}
	}
}

func TestApplyL1JacobiExact(t *testing.T) {
	a := lap1d(4)
	s, err := New(a, Config{Kind: L1Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{3, 4, 4, 3}
	e := make([]float64, 4)
	s.Apply(e, r)
	// Row l1 norms: 3, 4, 4, 3.
	want := []float64{1, 1, 1, 1}
	for i := range e {
		if math.Abs(e[i]-want[i]) > 1e-15 {
			t.Errorf("e[%d] = %v, want %v", i, e[i], want[i])
		}
	}
}

func TestHybridOneBlockIsGaussSeidel(t *testing.T) {
	// With a single block and zero guess, Apply must equal one forward GS
	// sweep from zero.
	a := lap1d(8)
	s, err := New(a, Config{Kind: HybridJGS, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, 0, 2, -1, 3, 0, 1, 1}
	e := make([]float64, 8)
	s.Apply(e, r)
	want := make([]float64, 8)
	a.GaussSeidelSweepRange(want, r, 0, 8)
	for i := range e {
		if math.Abs(e[i]-want[i]) > 1e-14 {
			t.Errorf("e[%d] = %v, want %v", i, e[i], want[i])
		}
	}
}

func TestHybridBlocksIndependent(t *testing.T) {
	// Hybrid JGS with b blocks from zero guess must not couple across
	// blocks: the result equals per-block GS from zero with off-block
	// values frozen at zero.
	a := grid.Laplacian7pt(4)
	s, err := New(a, Config{Kind: HybridJGS, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	r := grid.RandomRHS(n, 3)
	got := make([]float64, n)
	s.Apply(got, r)
	// Reference: per-block independent computation.
	want := make([]float64, n)
	for _, blk := range s.Blocks {
		tmp := make([]float64, n)
		a.LowerTriSolveRange(tmp, r, blk.Lo, blk.Hi)
		copy(want[blk.Lo:blk.Hi], tmp[blk.Lo:blk.Hi])
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("block independence violated at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSweepFixedPoint(t *testing.T) {
	// At the exact solution, one sweep of any smoother is a no-op.
	a := lap1d(12)
	b := grid.RandomRHS(12, 5)
	// Solve exactly via many GS sweeps.
	x := make([]float64, 12)
	for k := 0; k < 4000; k++ {
		a.GaussSeidelSweepRange(x, b, 0, 12)
	}
	for _, cfg := range allKinds() {
		s, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := append([]float64(nil), x...)
		scratch := make([]float64, 12)
		s.Sweep(e, b, scratch)
		for i := range e {
			if math.Abs(e[i]-x[i]) > 1e-10 {
				t.Errorf("%v: sweep moved exact solution at %d by %g", cfg.Kind, i, e[i]-x[i])
			}
		}
	}
}

func TestSweepReducesError(t *testing.T) {
	// From a random guess, every smoother must reduce the A-norm error on
	// an SPD problem (all four are convergent smoothers for the 7pt
	// Laplacian).
	a := grid.Laplacian7pt(5)
	n := a.Rows
	b := make([]float64, n) // solve Ax = 0; error is the iterate itself
	for _, cfg := range allKinds() {
		s, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := grid.RandomRHS(n, 11)
		scratch := make([]float64, n)
		anorm := func(v []float64) float64 {
			av := make([]float64, n)
			a.MatVec(av, v)
			return vec.Dot(v, av)
		}
		before := anorm(e)
		s.Sweep(e, b, scratch)
		after := anorm(e)
		if after >= before {
			t.Errorf("%v: A-norm error grew: %v -> %v", cfg.Kind, before, after)
		}
	}
}

func TestSweepEquivalentToApplyFromZero(t *testing.T) {
	// For every kind, Sweep from a zero iterate equals Apply.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := grid.Laplacian7pt(3)
		n := a.Rows
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		for _, cfg := range allKinds() {
			s, err := New(a, cfg)
			if err != nil {
				return false
			}
			viaApply := make([]float64, n)
			s.Apply(viaApply, r)
			viaSweep := make([]float64, n)
			scratch := make([]float64, n)
			s.Sweep(viaSweep, r, scratch)
			for i := range viaApply {
				if math.Abs(viaApply[i]-viaSweep[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestApplyBlockAtomicMatchesSerialForDiagonal(t *testing.T) {
	// For the diagonal smoothers the atomic variant is exactly the serial
	// one.
	a := grid.Laplacian7pt(3)
	n := a.Rows
	r := grid.RandomRHS(n, 9)
	for _, cfg := range []Config{{Kind: WJacobi, Omega: 0.9, Blocks: 3}, {Kind: L1Jacobi, Blocks: 3}} {
		s, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]float64, n)
		s.Apply(serial, r)
		at := vec.NewAtomic(n)
		for b := 0; b < s.NumBlocks(); b++ {
			s.ApplyBlockAtomic(at, r, b)
		}
		got := make([]float64, n)
		at.Snapshot(got)
		for i := range got {
			if math.Abs(got[i]-serial[i]) > 1e-15 {
				t.Fatalf("%v: atomic apply differs at %d", cfg.Kind, i)
			}
		}
	}
}

func TestApplyBlockAtomicHybridIgnoresOffBlock(t *testing.T) {
	// Hybrid JGS atomic: sequential execution must equal the plain-slice
	// Apply (off-block terms skipped).
	a := grid.Laplacian7pt(3)
	n := a.Rows
	r := grid.RandomRHS(n, 13)
	s, err := New(a, Config{Kind: HybridJGS, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, n)
	s.Apply(serial, r)
	at := vec.NewAtomic(n)
	for b := 0; b < s.NumBlocks(); b++ {
		s.ApplyBlockAtomic(at, r, b)
	}
	got := make([]float64, n)
	at.Snapshot(got)
	for i := range got {
		if math.Abs(got[i]-serial[i]) > 1e-13 {
			t.Fatalf("hybrid atomic differs at %d: %v vs %v", i, got[i], serial[i])
		}
	}
}

func TestAsyncGSSequentialEqualsGS(t *testing.T) {
	// Executed block-by-block in order, async GS reads all previously
	// written values: it degenerates to plain forward Gauss-Seidel.
	a := lap1d(10)
	r := grid.RandomRHS(10, 17)
	s, err := New(a, Config{Kind: AsyncGS, Blocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	at := vec.NewAtomic(10)
	for b := 0; b < s.NumBlocks(); b++ {
		s.ApplyBlockAtomic(at, r, b)
	}
	got := make([]float64, 10)
	at.Snapshot(got)
	want := make([]float64, 10)
	a.GaussSeidelSweepRange(want, r, 0, 10)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("async GS sequential != GS at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestAsyncGSConcurrentConverges(t *testing.T) {
	// Run async GS sweeps with concurrent goroutine blocks repeatedly; on a
	// diagonally dominant matrix (ρ(|G|) < 1) the iteration must converge
	// to the solution regardless of interleaving.
	a := grid.Laplacian7pt(4)
	n := a.Rows
	b := grid.RandomRHS(n, 23)
	s, err := New(a, Config{Kind: AsyncGS, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewAtomic(n)
	// Within each round, blocks relax concurrently with no ordering; across
	// rounds every block keeps updating, which is the "each component is
	// relaxed infinitely often" requirement of asynchronous convergence
	// theory. (A single join-free loop per goroutine can degenerate to one
	// pass of block Gauss-Seidel under run-to-completion scheduling.)
	for round := 0; round < 150; round++ {
		var wg sync.WaitGroup
		for blk := 0; blk < s.NumBlocks(); blk++ {
			wg.Add(1)
			go func(blk int) {
				defer wg.Done()
				for it := 0; it < 2; it++ {
					s.SolveSweepBlockAtomic(x, b, blk)
				}
			}(blk)
		}
		wg.Wait()
	}
	got := make([]float64, n)
	x.Snapshot(got)
	r := make([]float64, n)
	a.Residual(r, b, got)
	if nrm := vec.Norm2(r) / vec.Norm2(b); nrm > 1e-8 {
		t.Errorf("async GS did not converge: rel res %g", nrm)
	}
}

func TestInterpolantScaling(t *testing.T) {
	a := lap1d(4)
	// ω-Jacobi scaling.
	s, err := InterpolantScaling(a, Config{Kind: WJacobi, Omega: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if math.Abs(s[i]-0.45) > 1e-15 {
			t.Errorf("wjacobi scaling[%d] = %v, want 0.45", i, s[i])
		}
	}
	// Hybrid and async use the ω-Jacobi matrix too.
	h, err := InterpolantScaling(a, Config{Kind: AsyncGS, Omega: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if h[i] != s[i] {
			t.Error("async GS interpolant scaling must match ω-Jacobi")
		}
	}
	// ℓ1 scaling uses row l1 norms (3, 4, 4, 3).
	l1, err := InterpolantScaling(a, Config{Kind: L1Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 3, 0.25, 0.25, 1.0 / 3}
	for i := range l1 {
		if math.Abs(l1[i]-want[i]) > 1e-15 {
			t.Errorf("l1 scaling[%d] = %v, want %v", i, l1[i], want[i])
		}
	}
}

func TestL1HybridJGSAugmentedDiagonal(t *testing.T) {
	// With 2 blocks on the 1-D Laplacian [2 -1; -1 2 -1; ...], the row at a
	// block boundary has one off-block entry of magnitude 1: its effective
	// diagonal becomes 3.
	a := lap1d(4)
	s, err := New(a, Config{Kind: L1HybridJGS, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: [0,2) and [2,4). Row 1 couples to row 2 (off-block): l1Off=1.
	// Row 2 couples to row 1 (off-block): l1Off=1. Rows 0,3: 0.
	want := []float64{0, 1, 1, 0}
	for i, w := range want {
		if s.l1Off[i] != w {
			t.Errorf("l1Off[%d] = %v, want %v", i, s.l1Off[i], w)
		}
	}
	// Apply from zero: x0 = r0/2; x1 = (r1 + x0)/(2+1).
	r := []float64{2, 6, 0, 0}
	e := make([]float64, 4)
	s.Apply(e, r)
	if math.Abs(e[0]-1) > 1e-15 {
		t.Errorf("e[0] = %v, want 1", e[0])
	}
	if math.Abs(e[1]-(6.0+1.0)/3.0) > 1e-15 {
		t.Errorf("e[1] = %v, want %v", e[1], 7.0/3.0)
	}
}

func TestL1HybridJGSConvergesWithManyBlocks(t *testing.T) {
	// The whole point of the ℓ1 variant: convergence for any number of
	// blocks on SPD matrices. Use one block per row (the worst case for
	// plain hybrid).
	a := grid.Laplacian7pt(4)
	n := a.Rows
	s, err := New(a, Config{Kind: L1HybridJGS, Blocks: n})
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(n, 31)
	x := make([]float64, n)
	scratch := make([]float64, n)
	for it := 0; it < 400; it++ {
		s.Sweep(x, b, scratch)
	}
	r := make([]float64, n)
	a.Residual(r, b, x)
	if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-6 {
		t.Errorf("l1-hybrid with per-row blocks did not converge: %g", rel)
	}
}

func TestL1HybridJGSSweepFixedPointAndAtomicConsistency(t *testing.T) {
	a := lap1d(10)
	b := grid.RandomRHS(10, 33)
	s, err := New(a, Config{Kind: L1HybridJGS, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point: exact solution unchanged by a sweep.
	x := make([]float64, 10)
	for k := 0; k < 4000; k++ {
		a.GaussSeidelSweepRange(x, b, 0, 10)
	}
	e := append([]float64(nil), x...)
	scratch := make([]float64, 10)
	s.Sweep(e, b, scratch)
	for i := range e {
		if math.Abs(e[i]-x[i]) > 1e-10 {
			t.Fatalf("sweep moved exact solution at %d", i)
		}
	}
	// Atomic apply equals plain apply when run sequentially.
	serial := make([]float64, 10)
	s.Apply(serial, b)
	at := vec.NewAtomic(10)
	for blk := 0; blk < s.NumBlocks(); blk++ {
		s.ApplyBlockAtomic(at, b, blk)
	}
	got := make([]float64, 10)
	at.Snapshot(got)
	for i := range got {
		if math.Abs(got[i]-serial[i]) > 1e-14 {
			t.Fatalf("atomic apply differs at %d: %v vs %v", i, got[i], serial[i])
		}
	}
	// SolveSweepBlockAtomic at the fixed point leaves x unchanged.
	at.SetAll(x)
	for blk := 0; blk < s.NumBlocks(); blk++ {
		s.SolveSweepBlockAtomic(at, b, blk)
	}
	at.Snapshot(got)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-10 {
			t.Fatalf("atomic solve sweep moved exact solution at %d by %g", i, got[i]-x[i])
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		WJacobi:     "w-jacobi",
		L1Jacobi:    "l1-jacobi",
		HybridJGS:   "hybrid-jgs",
		AsyncGS:     "async-gs",
		L1HybridJGS: "l1-hybrid-jgs",
		Kind(42):    "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSweepBlockFromResidualMatchesSweep(t *testing.T) {
	// A full residual + per-block SweepBlockFromResidual must equal Sweep
	// for every kind, with the blocks swept concurrently as team threads
	// do (each block writes only its own rows of e and of the shared
	// scratch; the race job checks that).
	for _, cfg := range allKinds() {
		a := grid.Laplacian7pt(3)
		n := a.Rows
		s1, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(n, 41)
		e1 := grid.RandomRHS(n, 43)
		e2 := append([]float64(nil), e1...)
		scratch := make([]float64, n)
		s1.Sweep(e1, b, scratch)

		res := make([]float64, n)
		a.Residual(res, b, e2)
		var wg sync.WaitGroup
		for blk := 0; blk < s2.NumBlocks(); blk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s2.SweepBlockFromResidual(e2, res, blk)
			}()
		}
		wg.Wait()
		for i := range e1 {
			if math.Abs(e1[i]-e2[i]) > 1e-13 {
				t.Fatalf("%v: block sweep differs at %d: %v vs %v", cfg.Kind, i, e1[i], e2[i])
			}
		}
	}
}

func TestSweepBlockFromResidualL1Hybrid(t *testing.T) {
	a := grid.Laplacian7pt(3)
	n := a.Rows
	cfg := Config{Kind: L1HybridJGS, Blocks: 4}
	s1, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(n, 47)
	e1 := grid.RandomRHS(n, 49)
	e2 := append([]float64(nil), e1...)
	scratch := make([]float64, n)
	s1.Sweep(e1, b, scratch)
	res := make([]float64, n)
	a.Residual(res, b, e2)
	for blk := 0; blk < s1.NumBlocks(); blk++ {
		s1.SweepBlockFromResidual(e2, res, blk)
	}
	for i := range e1 {
		if math.Abs(e1[i]-e2[i]) > 1e-13 {
			t.Fatalf("l1-hybrid block sweep differs at %d", i)
		}
	}
}

func TestInterpolantScalingDefaultsOmega(t *testing.T) {
	// Omega <= 0 falls back to 0.9 for the default branch.
	a := lap1d(3)
	s, err := InterpolantScaling(a, Config{Kind: HybridJGS})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-0.45) > 1e-15 {
		t.Errorf("default omega scaling = %v, want 0.45", s[0])
	}
	// Errors for degenerate matrices.
	z := sparse.NewCOO(1, 1, 1)
	z.Add(0, 0, 0)
	if _, err := InterpolantScaling(z.ToCSR(), Config{Kind: WJacobi, Omega: 0.9}); err == nil {
		t.Error("zero diagonal accepted")
	}
	empty := &sparse.CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 0}}
	if _, err := InterpolantScaling(empty, Config{Kind: L1Jacobi}); err == nil {
		t.Error("empty row accepted for l1")
	}
}

func TestSolveSweepBlockAtomicJacobiKinds(t *testing.T) {
	// The Jacobi branch of SolveSweepBlockAtomic performs damped Jacobi on
	// A x = b; sequential block execution equals the serial update.
	a := lap1d(6)
	for _, cfg := range []Config{{Kind: WJacobi, Omega: 0.7, Blocks: 2}, {Kind: L1Jacobi, Blocks: 2}} {
		s, err := New(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := grid.RandomRHS(6, 51)
		x0 := grid.RandomRHS(6, 53)
		at := vec.NewAtomic(6)
		at.SetAll(x0)
		for blk := 0; blk < s.NumBlocks(); blk++ {
			s.SolveSweepBlockAtomic(at, b, blk)
		}
		// Serial reference: Gauss-Seidel-like because block 1 reads block
		// 0's fresh values; emulate exactly.
		want := append([]float64(nil), x0...)
		for i := 0; i < 6; i++ {
			sum := b[i]
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				sum -= a.Vals[p] * want[a.ColIdx[p]]
			}
			want[i] += s.invDiag[i] * sum
		}
		got := make([]float64, 6)
		at.Snapshot(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-13 {
				t.Fatalf("%v: atomic jacobi solve sweep differs at %d: %v vs %v", cfg.Kind, i, got[i], want[i])
			}
		}
	}
}
