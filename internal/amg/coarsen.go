package amg

import "math/rand"

// PointType classifies each point after coarsening.
type PointType int8

const (
	// FPoint is a fine point (interpolated from coarse neighbours).
	FPoint PointType = iota
	// CPoint is a coarse point (carried to the next level).
	CPoint
)

// CoarsenMethod selects the coarsening algorithm.
type CoarsenMethod int

const (
	// PMIS is the parallel modified independent set coarsening of
	// De Sterck, Yang & Heys.
	PMIS CoarsenMethod = iota
	// HMIS applies the first pass of classical Ruge-Stüben coarsening and
	// then filters the preliminary C set with PMIS, matching BoomerAMG's
	// HMIS option used in the paper.
	HMIS
)

func (m CoarsenMethod) String() string {
	switch m {
	case PMIS:
		return "PMIS"
	case HMIS:
		return "HMIS"
	}
	return "unknown"
}

// Coarsen splits the points of the strength graph into C and F points using
// the requested method. seed controls the random tie-breaking measures used
// by the PMIS stage.
func Coarsen(s *Strength, method CoarsenMethod, seed int64) []PointType {
	return coarsen(s, s.Transpose(), method, seed)
}

// coarsen is Coarsen given the transpose st of s, which every method
// needs and the callers compute once per graph.
func coarsen(s, st *Strength, method CoarsenMethod, seed int64) []PointType {
	switch method {
	case HMIS:
		pre := rsFirstPass(s, st)
		return pmisFiltered(s, st, pre, seed)
	default:
		all := make([]bool, s.N)
		for i := range all {
			all[i] = true
		}
		return pmisFiltered(s, st, all, seed)
	}
}

// CoarsenAggressive performs aggressive coarsening: a normal pass with the
// requested method, then a second pass with PMIS on the distance-two
// strength graph restricted to the C points of the first pass. The result
// uses far fewer C points (the paper's "aggressive levels" BoomerAMG
// option).
func CoarsenAggressive(s *Strength, method CoarsenMethod, seed int64) []PointType {
	first := Coarsen(s, method, seed)
	keep := make([]bool, s.N)
	for i, t := range first {
		keep[i] = t == CPoint
	}
	d2 := s.distanceTwo(keep)
	second := pmisFiltered(d2, d2.Transpose(), keep, seed+1)
	// Points not kept in the first pass stay F.
	for i := range second {
		if !keep[i] {
			second[i] = FPoint
		}
	}
	return second
}

// rsFirstPass runs the first pass of classical Ruge-Stüben coarsening:
// greedily pick the point with the largest measure λ_i = |Sᵀ_i| as a C
// point, make everything it strongly influences F, and bump the measures of
// the F points' strong influences. Returns candidate[i] == true for the
// preliminary C points. st is the transpose of s.
func rsFirstPass(s, st *Strength) []bool {
	n := s.N
	lambda := make([]int, n)
	maxLam := 0 // bucket queue over measures; measures can grow by at most n
	for i := 0; i < n; i++ {
		lambda[i] = len(st.Rows[i])
		maxLam = max(maxLam, lambda[i])
	}
	const (
		undecided = 0
		cPt       = 1
		fPt       = 2
	)
	state := make([]byte, n)
	// Stale bucket entries are dropped lazily when popped, so no in-bucket
	// position tracking is needed.
	buckets := make([][]int, maxLam+n+2)
	for i := 0; i < n; i++ {
		buckets[lambda[i]] = append(buckets[lambda[i]], i)
	}
	cur := len(buckets) - 1
	inBucket := append([]int(nil), lambda...)
	push := func(i int) {
		l := lambda[i]
		if l >= len(buckets) {
			l = len(buckets) - 1
			lambda[i] = l
		}
		buckets[l] = append(buckets[l], i)
		inBucket[i] = l
		if l > cur {
			cur = l
		}
	}
	candidate := make([]bool, n)
	remaining := n
	// Points with zero measure influence nobody; they become F immediately
	// (they will be interpolated or left alone).
	for i := 0; i < n; i++ {
		if lambda[i] == 0 {
			state[i] = fPt
			remaining--
		}
	}
	for remaining > 0 {
		// Find the highest non-empty bucket with a live entry.
		var pick = -1
		for cur >= 0 {
			b := buckets[cur]
			for len(b) > 0 {
				cand := b[len(b)-1]
				b = b[:len(b)-1]
				if state[cand] == undecided && inBucket[cand] == cur && lambda[cand] == cur {
					pick = cand
					break
				}
			}
			buckets[cur] = b
			if pick >= 0 {
				break
			}
			cur--
		}
		if pick < 0 {
			break // only F points remain
		}
		state[pick] = cPt
		candidate[pick] = true
		remaining--
		// Everything pick strongly influences becomes F.
		for _, i := range st.Rows[pick] {
			if state[i] != undecided {
				continue
			}
			state[i] = fPt
			remaining--
			// New F point: its strong influences become more attractive.
			for _, j := range s.Rows[i] {
				if state[j] == undecided {
					lambda[j]++
					push(j)
				}
			}
		}
	}
	return candidate
}

// pmisFiltered runs PMIS restricted to the candidate set: only candidate
// vertices may become C points; the independent-set competition runs on the
// strength graph edges between candidates. Non-candidates are F.
//
// Measures are λ_i = |Sᵀ_i| + rand[0,1), per the PMIS algorithm. A candidate
// becomes C when its measure beats all undecided candidate neighbours
// (in either edge direction); it becomes F when a neighbour wins. st is the
// transpose of s.
func pmisFiltered(s, st *Strength, candidate []bool, seed int64) []PointType {
	n := s.N
	rng := rand.New(rand.NewSource(seed))
	measure := make([]float64, n)
	for i := 0; i < n; i++ {
		measure[i] = float64(len(st.Rows[i])) + rng.Float64()
	}
	const (
		undecided = 0
		cPt       = 1
		fPt       = 2
	)
	state := make([]byte, n)
	undecidedCount := 0
	for i := 0; i < n; i++ {
		if !candidate[i] {
			state[i] = fPt
			continue
		}
		// A candidate with no strong edges to other candidates is trivially
		// independent: make it C (it cannot be interpolated).
		undecidedCount++
	}
	// makeC turns undecided candidate i into a C point and its undecided
	// candidate neighbours into F points.
	makeC := func(i int) {
		state[i] = cPt
		undecidedCount--
		for _, nbrs := range [2][]int{s.Rows[i], st.Rows[i]} {
			for _, j := range nbrs {
				if candidate[j] && state[j] == undecided {
					state[j] = fPt
					undecidedCount--
				}
			}
		}
	}
	// Iterate: in each round, undecided candidates whose measure is a strict
	// local maximum among undecided candidate neighbours become C; their
	// undecided candidate neighbours become F.
	for undecidedCount > 0 {
		progress := false
		var newC []int
		for i := 0; i < n; i++ {
			if state[i] != undecided {
				continue
			}
			// i loses to any undecided candidate neighbour with a measure
			// at least its own.
			isMax := true
			for _, nbrs := range [2][]int{s.Rows[i], st.Rows[i]} {
				for z := 0; z < len(nbrs) && isMax; z++ {
					j := nbrs[z]
					isMax = j == i || !candidate[j] || state[j] != undecided || measure[j] < measure[i]
				}
			}
			if isMax {
				newC = append(newC, i)
			}
		}
		for _, i := range newC {
			if state[i] == undecided {
				makeC(i)
				progress = true
			}
		}
		if !progress {
			// Ties in measure can in principle stall; break them by fiat.
			for i := 0; i < n; i++ {
				if state[i] == undecided {
					makeC(i)
					break
				}
			}
		}
	}
	out := make([]PointType, n)
	for i := 0; i < n; i++ {
		if state[i] == cPt {
			out[i] = CPoint
		}
	}
	return out
}

// CountC returns the number of C points in a splitting.
func CountC(types []PointType) int {
	c := 0
	for _, t := range types {
		if t == CPoint {
			c++
		}
	}
	return c
}
