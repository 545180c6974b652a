// Package partition provides the work-balancing primitives of the parallel
// runtime: splitting a row space into contiguous blocks for thread teams,
// and assigning a fixed budget of threads to the grids of a multigrid
// hierarchy proportionally to per-grid work, as described in Section IV of
// the paper ("threads are distributed among the grids to balance the amount
// of work, where the work for a grid is approximately the number of flops
// required for that grid to carry out its correction").
package partition

import "fmt"

// Range is a half-open row interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// SplitRows partitions [0, n) into p contiguous ranges whose sizes differ by
// at most one. p must be >= 1; empty ranges are produced when p > n.
func SplitRows(n, p int) []Range {
	if p < 1 {
		panic(fmt.Sprintf("partition: SplitRows needs p >= 1, got %d", p))
	}
	out := make([]Range, p)
	base, rem := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = Range{lo, lo + size}
		lo += size
	}
	return out
}

// Assign distributes nthreads threads over len(work) grids proportionally to
// work[k] (> 0), guaranteeing at least one thread per grid when
// nthreads >= len(work). It uses the largest-remainder method. When
// nthreads < len(work), the nthreads largest-work grids get one thread each
// and the rest get zero (callers then merge grids onto threads; the async
// runtime instead requires nthreads >= #grids and the public API enforces
// it).
func Assign(work []float64, nthreads int) []int {
	g := len(work)
	out := make([]int, g)
	if g == 0 || nthreads <= 0 {
		return out
	}
	if nthreads < g {
		// Give the nthreads heaviest grids one thread each.
		idx := argsortDesc(work)
		for i := 0; i < nthreads; i++ {
			out[idx[i]] = 1
		}
		return out
	}
	total := 0.0
	for _, w := range work {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total == 0 {
		// Degenerate: spread evenly.
		for i := range out {
			out[i] = 1
		}
		rem := nthreads - g
		for i := 0; rem > 0; i = (i + 1) % g {
			out[i]++
			rem--
		}
		return out
	}
	// Reserve one thread per grid, distribute the rest proportionally.
	spare := nthreads - g
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, g)
	used := 0
	for i, w := range work {
		if w < 0 {
			w = 0
		}
		share := float64(spare) * w / total
		extra := int(share)
		out[i] = 1 + extra
		used += extra
		fracs[i] = frac{i, share - float64(extra)}
	}
	left := spare - used
	// Largest remainders get the leftover threads.
	for i := 1; i < g; i++ {
		f := fracs[i]
		j := i - 1
		for j >= 0 && fracs[j].rem < f.rem {
			fracs[j+1] = fracs[j]
			j--
		}
		fracs[j+1] = f
	}
	for i := 0; i < left; i++ {
		out[fracs[i%g].idx]++
	}
	return out
}

func argsortDesc(w []float64) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && w[idx[j]] < w[x] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
	return idx
}
