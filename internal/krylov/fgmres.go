package krylov

import (
	"context"
	"math"

	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// FGMRESCtx runs flexible restarted GMRES(m) on A x = b from x = 0. Unlike
// right-preconditioned GMRES, the flexible variant stores the
// preconditioned basis Z = [M⁻¹v₁ … M⁻¹vⱼ] and forms the update from it,
// so the preconditioner may vary between applications — exactly what a
// multigrid cycle under adaptive damping (or any non-symmetric,
// non-constant cycle) is. Neither A nor M needs to be symmetric.
// Cancellation is checked at each iteration boundary; a cancelled solve
// returns the partial result with ctx's error.
func FGMRESCtx(ctx context.Context, a op.Operator, b []float64, opt Options) (Result, error) {
	n, x, err := checkSystem(a.Rows(), a.Cols(), b, &opt)
	if err != nil {
		return Result{}, err
	}
	m := opt.Restart
	if m <= 0 {
		m = DefaultRestart
	}
	if m > opt.MaxIter {
		m = opt.MaxIter
	}
	pre := opt.M
	if pre == nil {
		pre = Identity{}
	}
	hist := historyBuf(&opt)

	nb := vec.Norm2(b)
	if nb == 0 {
		return Result{X: x, History: append(hist, 0), Verdict: vec.Judge(x, 0, opt.Tol)}, nil
	}
	hist = append(hist, 1)

	ws := acquireScratch()
	defer scratches.Put(ws)
	ws.ensureFGMRES(n, m)
	r, v, zv := ws.r, ws.v, ws.zv
	// h is the Givens-triangularized Hessenberg, column-major with m+1
	// rows: h[i+j*(m+1)] is H[i,j].
	h, cs, sn, g, y := ws.h, ws.cs, ws.sn, ws.g, ws.y
	ld := m + 1

	copy(r, b) // r = b − A·0
	res := Result{X: x, History: hist}
	rel := 1.0
	total := 0
	for total < opt.MaxIter {
		if err := ctx.Err(); err != nil {
			res.RelRes = res.History[len(res.History)-1]
			return res, err
		}
		beta := vec.Norm2(r)
		rel = beta / nb
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			opt.Observer.KrylovBreakdown()
			return Result{}, ErrBreakdown
		}
		if rel < opt.Tol {
			// The restart residual is already below tolerance (happy
			// breakdown on the previous inner loop).
			break
		}
		copy(v[0], r)
		vec.Scale(1/beta, v[0])
		g[0] = beta
		for i := 1; i <= m; i++ {
			g[i] = 0
		}
		// Arnoldi process with modified Gram-Schmidt on the flexible
		// basis: w = A (M⁻¹ vⱼ), orthogonalized against v₀..vⱼ.
		j := 0
		for ; j < m && total < opt.MaxIter; j++ {
			if err := ctx.Err(); err != nil {
				res.RelRes = res.History[len(res.History)-1]
				return res, err
			}
			pre.Precondition(zv[j], v[j])
			w := v[j+1]
			a.Apply(w, zv[j])
			for i := 0; i <= j; i++ {
				hij := vec.Dot(w, v[i])
				h[i+j*ld] = hij
				vec.AxpyPar(-hij, w, v[i])
			}
			hj1 := vec.Norm2(w)
			// Apply the accumulated Givens rotations to the new column,
			// then the rotation that annihilates the subdiagonal.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i+j*ld] + sn[i]*h[i+1+j*ld]
				h[i+1+j*ld] = -sn[i]*h[i+j*ld] + cs[i]*h[i+1+j*ld]
				h[i+j*ld] = t
			}
			cs[j], sn[j] = givens(h[j+j*ld], hj1)
			h[j+j*ld] = cs[j]*h[j+j*ld] + sn[j]*hj1
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			total++
			rel = math.Abs(g[j+1]) / nb
			if math.IsNaN(rel) {
				opt.Observer.KrylovBreakdown()
				return Result{}, ErrBreakdown
			}
			res.History = append(res.History, rel)
			res.Iterations = total
			opt.Observer.IterationDone(rel)
			if rel < opt.Tol || hj1 == 0 {
				j++
				break
			}
			vec.Scale(1/hj1, w)
		}
		// Solve the j×j triangular system H y = g and update x += Z y.
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for l := i + 1; l < j; l++ {
				s -= h[i+l*ld] * y[l]
			}
			d := h[i+i*ld]
			if d == 0 || math.IsNaN(d) {
				opt.Observer.KrylovBreakdown()
				return Result{}, ErrBreakdown
			}
			y[i] = s / d
		}
		for i := 0; i < j; i++ {
			vec.AxpyPar(y[i], x, zv[i])
		}
		// Restart from, or stop on, the true residual.
		a.Residual(r, b, x)
		if rel < opt.Tol {
			break
		}
	}
	res.judge("fgmres", r, nb, &opt)
	return res, nil
}

// givens returns the rotation (c, s) with c·a + s·b = r, annihilating b.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}
