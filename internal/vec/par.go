// Parallel BLAS-1 kernels. Each wrapper shards its loop over the shared
// par.Default() worker pool when the vector is long enough (par.Par) and
// falls back to the serial kernel otherwise, so small multigrid levels
// never pay goroutine-handoff costs. Kernel descriptors are recycled
// through par.FreeLists, keeping the steady state allocation-free.
//
// The sharded updates are elementwise-independent and bitwise-identical
// to the serial kernels. The reductions (reduce.go) shard fixed blocks of
// rows and add the block partials in block order, so they too give the
// same bits at any worker count.
package vec

import "asyncmg/internal/par"

type axpyKernel struct {
	alpha float64
	y, x  []float64
}

func (k *axpyKernel) Do(_, lo, hi int) {
	AxpyRange(k.alpha, k.y, k.x, lo, hi)
}

var axpyList par.FreeList[axpyKernel]

// AxpyPar computes y += alpha*x, sharded across the kernel pool for long
// vectors. Bitwise-identical to Axpy.
func AxpyPar(alpha float64, y, x []float64) {
	if !par.Par(len(y)) {
		Axpy(alpha, y, x)
		return
	}
	k := axpyList.Get(func() *axpyKernel { return new(axpyKernel) })
	k.alpha, k.y, k.x = alpha, y, x
	par.Default().Run(len(y), k)
	k.y, k.x = nil, nil
	axpyList.Put(k)
}

type xpayKernel struct {
	alpha float64
	y, x  []float64
}

func (k *xpayKernel) Do(_, lo, hi int) {
	XpayRange(k.alpha, k.y, k.x, lo, hi)
}

var xpayList par.FreeList[xpayKernel]

// XpayPar computes y = x + alpha*y, sharded across the kernel pool for
// long vectors. Bitwise-identical to Xpay.
func XpayPar(alpha float64, y, x []float64) {
	if !par.Par(len(y)) {
		Xpay(alpha, y, x)
		return
	}
	k := xpayList.Get(func() *xpayKernel { return new(xpayKernel) })
	k.alpha, k.y, k.x = alpha, y, x
	par.Default().Run(len(y), k)
	k.y, k.x = nil, nil
	xpayList.Put(k)
}
