// Package vec provides the vector kernels used throughout the solvers:
// basic BLAS-1 style operations (with range variants that goroutine teams
// use to split work) and an atomically accessible float64 vector used as
// the shared global state (x and r) of the asynchronous multigrid
// algorithms.
package vec

import "math"

// Zero sets every element of v to 0.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, y, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// AxpyRange computes y[lo:hi] += alpha*x[lo:hi].
func AxpyRange(alpha float64, y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] += alpha * x[i]
	}
}

// Xpay computes y = x + alpha*y (the CG search-direction update
// p = z + beta*p).
func Xpay(alpha float64, y, x []float64) {
	for i := range y {
		y[i] = x[i] + alpha*y[i]
	}
}

// XpayRange computes y[lo:hi] = x[lo:hi] + alpha*y[lo:hi].
func XpayRange(alpha float64, y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] = x[i] + alpha*y[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// HasNonFinite reports whether v contains a NaN or infinity.
func HasNonFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Verdict is how a solve ended, in rising severity; Grew and Diverged
// are the paper's †.
type Verdict int

const (
	Converged Verdict = iota
	Stalled
	Grew
	Diverged
)

func (v Verdict) String() string { return [...]string{"converged", "stalled", "grew", "diverged"}[v] }

// DivergedRelRes is the relative residual past which a finite iterate is
// Diverged: a residual grown ten orders of magnitude is garbage.
const DivergedRelRes = 1e10

// Judge is the one verdict rule, over a solve's final iterate x (nil when
// only the residual is at hand) and the relative residual relres the
// solver computed from it, checked in order: Diverged if x or relres is
// non-finite or relres > DivergedRelRes; Grew if relres ≥ 1, no reduction
// from x₀ = 0, where every solver starts; Stalled if tol > 0 and relres >
// tol; Converged otherwise, which with no tolerance (a fixed t_max) means
// the run ended below its start.
func Judge(x []float64, relres, tol float64) Verdict {
	switch {
	case HasNonFinite(x) || math.IsNaN(relres) || math.IsInf(relres, 0) || relres > DivergedRelRes:
		return Diverged
	case relres >= 1:
		return Grew
	case tol > 0 && relres > tol:
		return Stalled
	}
	return Converged
}
