package vec

import (
	"math"

	"asyncmg/internal/par"
)

// Block is the row count of one reduction block. Every reduction in this
// package (Dot, Norm2, ApplyDot, CGUpdate) sums each block serially in row
// order and adds the block partials in block order, whether the blocks ran
// on one worker or many, so its result is the same bit for bit at every
// worker count; on n ≤ Block it is the plain serial sum.
const Block = 4096

// blockSum is a reduction's per-block work: sum returns the row-order
// partial sum of rows [lo, hi), after any elementwise update of those rows
// the kernel fuses with it.
type blockSum interface {
	sum(lo, hi int) float64
}

// reducer is one sharded reduction's reusable state: its kernel (one of
// the embedded ones, so choosing it allocates nothing) and one
// partial-sum slot per block, which the shards fill and the caller adds.
// A reduction below the par.Par threshold needs none: it sums its blocks
// on the caller (serialSum).
type reducer struct {
	f     blockSum
	n     int
	parts []float64

	dot   dotKernel
	apply applyDotKernel
	cg    cgKernel
}

func (r *reducer) Do(_, lo, hi int) {
	for b := lo; b < hi; b++ {
		r.parts[b] = r.f.sum(b*Block, min((b+1)*Block, r.n))
	}
}

var reducers par.FreeList[reducer]

// reduce returns the block-ordered sum of f over [0, n), its blocks
// sharded over the shared pool, and releases r.
func (r *reducer) reduce(n int, f blockSum) float64 {
	nb := (n + Block - 1) / Block
	if cap(r.parts) < nb {
		r.parts = make([]float64, nb)
	}
	r.f, r.n, r.parts = f, n, r.parts[:nb]
	par.Default().Run(nb, r)
	s := 0.0
	for _, p := range r.parts {
		s += p
	}
	*r = reducer{parts: r.parts}
	reducers.Put(r)
	return s
}

func getReducer() *reducer { return reducers.Get(func() *reducer { return new(reducer) }) }

// serialSum is the block-ordered sum of sum over [0, n) on the caller.
func serialSum(n int, sum func(lo, hi int) float64) float64 {
	s := 0.0
	for lo := 0; lo < n; lo += Block {
		s += sum(lo, min(lo+Block, n))
	}
	return s
}

// dotRange returns Σ x[i]·y[i] over [lo, hi) in row order.
func dotRange(x, y []float64, lo, hi int) float64 {
	x, y = x[lo:hi], y[lo:hi]
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

type dotKernel struct{ x, y []float64 }

func (k *dotKernel) sum(lo, hi int) float64 { return dotRange(k.x, k.y, lo, hi) }

// Dot returns the inner product of x and y, block-ordered (see Block).
func Dot(x, y []float64) float64 {
	k := dotKernel{x, y}
	if !par.Par(len(x)) {
		return serialSum(len(x), k.sum)
	}
	r := getReducer()
	r.dot = k
	return r.reduce(len(x), &r.dot)
}

// Norm2 returns the Euclidean norm of v: √Σv² in one block-ordered pass,
// or the scaled two-pass form where that sum is unreliable (see norm2).
// A NaN anywhere gives +Inf, the divergence sentinel.
func Norm2(v []float64) float64 {
	return norm2(v, Dot(v, v))
}

// norm2Floor is the smallest Σv² that norm2 takes the root of. A square
// below 2⁻¹⁰²² is subnormal and loses bits, at most 2⁻¹⁰⁷⁵ each, so below
// the floor the sum of a vector of tiny entries may be off in its leading
// digits; above it the loss of any slice is far below one ulp.
const norm2Floor = 1e-200

// norm2 returns √s, where s is Σv² summed in one pass, unless s is below
// norm2Floor (zero, underflowed or tiny) or not finite (an overflowed
// square, ±Inf or NaN in v): then it returns v's scaled two-pass norm.
func norm2(v []float64, s float64) float64 {
	if s >= norm2Floor && s <= math.MaxFloat64 {
		return math.Sqrt(s)
	}
	return scaledNorm2(v)
}

// scaledNorm2 is max|v|·‖v/max|v|‖₂, which neither overflows nor
// underflows; it is +Inf when v holds a NaN or an infinity.
func scaledNorm2(v []float64) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if math.IsNaN(x) {
			return math.Inf(1)
		}
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	if math.IsInf(maxAbs, 0) {
		return math.Inf(1)
	}
	s := 0.0
	for _, x := range v {
		t := x / maxAbs
		s += t * t
	}
	return maxAbs * math.Sqrt(s)
}

// Applier computes rows of an operator product: y[lo:hi] = (A x)[lo:hi].
type Applier interface {
	ApplyRange(y, x []float64, lo, hi int)
}

type applyDotKernel struct {
	a    Applier
	y, x []float64
}

func (k *applyDotKernel) sum(lo, hi int) float64 {
	k.a.ApplyRange(k.y, k.x, lo, hi)
	return dotRange(k.x, k.y, lo, hi)
}

// ApplyDot computes y = A x one block at a time and returns x·y, each
// block's partial taken while its rows are still in cache. work is the
// product's work (A's nonzeros) for the dispatch threshold. y is A x bit
// for bit and the result is Dot(x, y) bit for bit.
func ApplyDot(work int, a Applier, y, x []float64) float64 {
	k := applyDotKernel{a, y, x}
	if !par.Par(work) {
		return serialSum(len(y), k.sum)
	}
	r := getReducer()
	r.apply = k
	return r.reduce(len(y), &r.apply)
}

type cgKernel struct {
	alpha       float64
	x, r, p, ap []float64
}

func (k *cgKernel) sum(lo, hi int) float64 {
	r := k.r[lo:hi]
	x, p, ap := k.x[lo:hi], k.p[lo:hi], k.ap[lo:hi]
	alpha, nalpha := k.alpha, -k.alpha
	s := 0.0
	for i := range r {
		x[i] += alpha * p[i]
		ri := r[i] + nalpha*ap[i]
		r[i] = ri
		s += ri * ri
	}
	return s
}

// CGUpdate is conjugate gradients' iterate and residual update, x += αp
// and r −= α·ap, fused with ‖r‖₂ of the updated r in one pass. x and r are
// those of AxpyPar bit for bit and the norm is Norm2(r)'s.
func CGUpdate(alpha float64, x, r, p, ap []float64) float64 {
	k := cgKernel{alpha, x, r, p, ap}
	if !par.Par(len(r)) {
		return norm2(r, serialSum(len(r), k.sum))
	}
	red := getReducer()
	red.cg = k
	return norm2(r, red.reduce(len(r), &red.cg))
}
