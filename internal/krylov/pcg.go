package krylov

import (
	"context"
	"fmt"
	"math"

	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// PCG runs (preconditioned) conjugate gradients on A x = b from x = 0,
// generically over the operator abstraction: assembled CSR, matrix-free
// stencils, and float32-storage operators all work. A and the
// preconditioner must be symmetric positive definite.
func PCG(a op.Operator, b []float64, opt Options) (Result, error) {
	return PCGCtx(context.Background(), a, b, opt)
}

// PCGCtx is PCG with cancellation checked at each iteration boundary; a
// cancelled solve returns the partial result with ctx's error.
func PCGCtx(ctx context.Context, a op.Operator, b []float64, opt Options) (Result, error) {
	n, x, err := checkSystem(a.Rows(), a.Cols(), b, &opt)
	if err != nil {
		return Result{}, err
	}
	m := opt.M
	if m == nil {
		m = Identity{}
	}
	hist := historyBuf(&opt)

	nb := vec.Norm2(b)
	if nb == 0 {
		return Result{X: x, RelRes: 0, History: append(hist, 0), Converged: true}, nil
	}
	hist = append(hist, 1)

	ws := acquireScratch()
	defer releaseScratch(ws)
	ws.ensurePCG(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap

	copy(r, b)
	m.Precondition(z, r)
	copy(p, z)
	// Elementwise updates run on the sharded kernels (bitwise-identical
	// to serial); the reductions use the serial Dot/Norm2 so histories
	// are bit-stable across worker counts.
	rz := vec.Dot(r, z)
	res := Result{X: x, History: hist}
	for it := 0; it < opt.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			res.RelRes = res.History[len(res.History)-1]
			return res, err
		}
		a.Apply(ap, p)
		pap := vec.Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			opt.Observer.KrylovBreakdown()
			return Result{}, ErrBreakdown
		}
		alpha := rz / pap
		vec.AxpyPar(alpha, x, p)
		vec.AxpyPar(-alpha, r, ap)
		rel := vec.Norm2(r) / nb
		res.History = append(res.History, rel)
		res.Iterations = it + 1
		opt.Observer.IterationDone(rel)
		if rel < opt.Tol {
			res.RelRes = rel
			res.Converged = true
			opt.Observer.KrylovSolved("pcg", true)
			return res, nil
		}
		m.Precondition(z, r)
		rzNew := vec.Dot(r, z)
		if math.IsNaN(rzNew) {
			opt.Observer.KrylovBreakdown()
			return Result{}, ErrBreakdown
		}
		beta := rzNew / rz
		rz = rzNew
		vec.XpayPar(beta, p, z)
	}
	res.RelRes = res.History[len(res.History)-1]
	opt.Observer.KrylovSolved("pcg", false)
	return res, nil
}

// checkSystem validates the operator shape, right-hand side and options
// shared by every solver, and returns the (zeroed) iterate.
func checkSystem(rows, cols int, b []float64, opt *Options) (n int, x []float64, err error) {
	if rows != cols {
		return 0, nil, fmt.Errorf("krylov: operator must be square, got %dx%d", rows, cols)
	}
	n = rows
	if len(b) != n {
		return 0, nil, fmt.Errorf("krylov: len(b) = %d, want %d", len(b), n)
	}
	if opt.MaxIter <= 0 {
		return 0, nil, fmt.Errorf("krylov: MaxIter must be positive")
	}
	x = opt.X
	if x == nil {
		x = make([]float64, n)
	} else {
		if len(x) != n {
			return 0, nil, fmt.Errorf("krylov: len(Options.X) = %d, want %d", len(x), n)
		}
		vec.Zero(x)
	}
	return n, x, nil
}

// historyBuf returns the zero-length history backing store, reusing
// Options.History when given.
func historyBuf(opt *Options) []float64 {
	if opt.History != nil {
		return opt.History[:0]
	}
	return make([]float64, 0, opt.MaxIter+1)
}
