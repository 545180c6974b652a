// Package model implements the sequential simulation models of asynchronous
// additive multigrid from Section III of the paper:
//
//   - semi-async (Equation 6): at each time instant a random subset Ψ(t) of
//     grids corrects x, each grid reading a single consistent past iterate
//     x^(z_k(t));
//   - full-async, solution-based (Equation 7): each grid reads every
//     component of x from its own past time instant z_ki(t), so the vector
//     it sees mixes ages;
//   - full-async, residual-based (Equation 10): as above but the mixed-age
//     reads apply to the running residual r rather than to x.
//
// Grid k participates in Ψ(t) with probability p_k drawn once per run from
// U[α, 1]; reads are bounded by the maximum delay δ and can never be older
// than the grid's previous read. Each grid stops after a fixed number of
// updates (20 in the paper), and the simulation ends when all grids are
// done.
package model

import (
	"fmt"
	"math/rand"

	"asyncmg/internal/engine"
	"asyncmg/internal/obs"
	"asyncmg/internal/vec"
)

// Variant selects which of the three asynchronous models to simulate.
type Variant int

const (
	// SemiAsync is Equation 6: whole-vector reads from one past instant.
	SemiAsync Variant = iota
	// FullAsyncSolution is Equation 7: per-component reads of x.
	FullAsyncSolution
	// FullAsyncResidual is Equation 10: per-component reads of r.
	FullAsyncResidual
)

func (v Variant) String() string {
	switch v {
	case SemiAsync:
		return "semi-async"
	case FullAsyncSolution:
		return "full-async-solution"
	case FullAsyncResidual:
		return "full-async-residual"
	}
	return "unknown"
}

// Config parameterizes one simulation run.
type Config struct {
	// Variant is the asynchronous model to simulate.
	Variant Variant
	// Method is the additive correction operator: engine.Multadd or engine.AFACx.
	Method engine.Method
	// Alpha is the minimum update probability α ∈ (0, 1]; p_k ~ U[α, 1].
	Alpha float64
	// Delta is the maximum read delay δ >= 0.
	Delta int
	// Updates is the number of corrections each grid performs (the paper
	// uses 20 and calls the total "20 V-cycles").
	Updates int
	// UpdatesPerGrid overrides Updates per grid when non-nil (len must be
	// the number of levels). The paper's conclusion observes that
	// grid-independent convergence is lost when correction counts are
	// unbalanced; this knob reproduces that regime in the model.
	UpdatesPerGrid []int
	// Seed drives the run's randomness (p_k, Ψ(t), and the read clocks).
	Seed int64
	// MaxInstants caps the simulated time to guard against pathological
	// (α→0) runs; 0 means Updates * 1000.
	MaxInstants int
	// Observer, when non-nil, receives per-grid relaxation/correction
	// counts and the realized read delay t − z of every correction (the
	// model's exact staleness: the oldest component read for the
	// full-async variants). Nil disables instrumentation.
	Observer *obs.Observer
}

// Result reports the outcome of a simulation run.
type Result struct {
	// X is the final iterate.
	X []float64
	// RelRes is ‖b − A X‖₂/‖b‖₂ measured on the true fine operator.
	RelRes float64
	// Instants is the number of simulated time instants.
	Instants int
	// Corrections[k] counts grid k's updates (== Updates unless the
	// instant cap was hit).
	Corrections []int
}

// Run simulates one asynchronous execution on the given multigrid setup.
func Run(s *engine.Engine, b []float64, cfg Config) (*Result, error) {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("model: alpha %v outside (0, 1]", cfg.Alpha)
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("model: negative delta %d", cfg.Delta)
	}
	if cfg.Updates <= 0 {
		return nil, fmt.Errorf("model: Updates must be positive, got %d", cfg.Updates)
	}
	if cfg.Method != engine.Multadd && cfg.Method != engine.AFACx {
		return nil, fmt.Errorf("model: method %v not supported (want Multadd or AFACx)", cfg.Method)
	}
	maxT := cfg.MaxInstants
	if maxT <= 0 {
		maxT = cfg.Updates * 1000
	}
	l := s.NumLevels()
	updates := make([]int, l)
	for k := range updates {
		updates[k] = cfg.Updates
	}
	if cfg.UpdatesPerGrid != nil {
		if len(cfg.UpdatesPerGrid) != l {
			return nil, fmt.Errorf("model: UpdatesPerGrid has %d entries, want %d", len(cfg.UpdatesPerGrid), l)
		}
		copy(updates, cfg.UpdatesPerGrid)
		for k, u := range updates {
			if u <= 0 {
				return nil, fmt.Errorf("model: UpdatesPerGrid[%d] = %d must be positive", k, u)
			}
			if u*1000 > maxT && cfg.MaxInstants <= 0 {
				maxT = u * 1000
			}
		}
	}
	n := s.LevelSize(0)
	if len(b) != n {
		return nil, fmt.Errorf("model: len(b) = %d, want %d", len(b), n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-grid update probabilities p_k ~ U[α, 1].
	p := make([]float64, l)
	for k := range p {
		p[k] = cfg.Alpha + (1-cfg.Alpha)*rng.Float64()
	}

	// State. The history ring holds the last δ+1 instants of the shared
	// vector: x for the solution-based models, r for the residual-based
	// one.
	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b − A·0
	hist := newRing(cfg.Delta+1, n)
	if cfg.Variant == FullAsyncResidual {
		hist.push(r)
	} else {
		hist.push(x)
	}

	lastRead := make([]int, l) // most recent instant grid k has read from
	corr := make([]int, l)
	done := 0
	a := s.Ops[0]
	w := newCorrWorkspace(s)
	defer w.release(s)
	readBuf := make([]float64, n)
	sum := make([]float64, n)

	t := 0
	o := cfg.Observer
	// record reports grid k's correction at instant t, computed from
	// information read at instant z (staleness t − z: the model's exact
	// read delay, bounded by δ).
	record := func(k, z int) {
		if o == nil {
			return
		}
		o.Relaxed(k, 1)
		if cfg.Method == engine.AFACx && k+1 < l {
			o.Relaxed(k+1, 1)
		}
		o.Corrected(k, int64(t-z))
	}
	for done < l && t < maxT {
		vec.Zero(sum)
		active := false
		for k := 0; k < l; k++ {
			if corr[k] >= updates[k] || rng.Float64() >= p[k] {
				continue
			}
			active = true
			corr[k]++
			if corr[k] >= updates[k] {
				done++
			}
			lo := lastRead[k]
			if t-cfg.Delta > lo {
				lo = t - cfg.Delta
			}
			switch cfg.Variant {
			case SemiAsync:
				z := lo + rng.Intn(t-lo+1)
				lastRead[k] = z
				hist.at(z, t, readBuf)
				// B_k needs the fine residual b − A x^(z).
				a.Residual(w.rfine, b, readBuf)
				applyCorrection(s, cfg.Method, k, w)
				vec.Axpy(1, sum, w.corr)
				record(k, z)
			case FullAsyncSolution:
				maxZ, minZ := lo, t
				for i := 0; i < n; i++ {
					z := lo + rng.Intn(t-lo+1)
					if z > maxZ {
						maxZ = z
					}
					if z < minZ {
						minZ = z
					}
					readBuf[i] = hist.elem(z, t, i)
				}
				lastRead[k] = maxZ
				a.Residual(w.rfine, b, readBuf)
				applyCorrection(s, cfg.Method, k, w)
				vec.Axpy(1, sum, w.corr)
				record(k, minZ)
			case FullAsyncResidual:
				maxZ, minZ := lo, t
				for i := 0; i < n; i++ {
					z := lo + rng.Intn(t-lo+1)
					if z > maxZ {
						maxZ = z
					}
					if z < minZ {
						minZ = z
					}
					w.rfine[i] = hist.elem(z, t, i)
				}
				lastRead[k] = maxZ
				applyCorrection(s, cfg.Method, k, w)
				vec.Axpy(1, sum, w.corr)
				record(k, minZ)
			}
		}
		// Commit the summed corrections for this instant.
		if active {
			vec.Axpy(1, x, sum)
			if cfg.Variant == FullAsyncResidual {
				// r ← r − A Σ C_k(...): the model's own residual recursion.
				a.Apply(w.av, sum)
				vec.Axpy(-1, r, w.av)
			}
		}
		t++
		if cfg.Variant == FullAsyncResidual {
			hist.push(r)
		} else {
			hist.push(x)
		}
	}
	// Report the true relative residual.
	rr := make([]float64, n)
	a.Residual(rr, b, x)
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	return &Result{
		X:           x,
		RelRes:      vec.Norm2(rr) / nb,
		Instants:    t,
		Corrections: corr,
	}, nil
}

// corrWorkspace holds the scratch used to evaluate one grid's correction
// from a fine-grid residual.
type corrWorkspace struct {
	rfine []float64 // input: fine residual
	corr  []float64 // output: fine-level correction of grid k
	av    []float64 // scratch for residual-based commit
	cw    *engine.CorrWorkspace
}

func newCorrWorkspace(s *engine.Engine) *corrWorkspace {
	n := s.LevelSize(0)
	return &corrWorkspace{
		rfine: make([]float64, n),
		corr:  make([]float64, n),
		av:    make([]float64, n),
		cw:    s.AcquireCorrWorkspace(),
	}
}

// release returns the pooled engine scratch; the workspace must not be
// used afterwards.
func (w *corrWorkspace) release(s *engine.Engine) { s.ReleaseCorrWorkspace(w.cw) }

// applyCorrection computes grid k's fine-level correction from the fine
// residual in w.rfine into w.corr. This is B_k (solution-based) and C_k
// (residual-based): the operators coincide once the fine residual is in
// hand.
func applyCorrection(s *engine.Engine, method engine.Method, k int, w *corrWorkspace) {
	s.GridCorrection(method, k, w.corr, w.rfine, 1, w.cw)
}

// ring is a fixed-depth history of vectors indexed by absolute time
// instant.
type ring struct {
	depth int
	data  [][]float64
	count int // number of pushes so far; data[(count-1) % depth] is newest
}

func newRing(depth, n int) *ring {
	r := &ring{depth: depth, data: make([][]float64, depth)}
	for i := range r.data {
		r.data[i] = make([]float64, n)
	}
	return r
}

// push records v as the vector at the next time instant.
func (r *ring) push(v []float64) {
	copy(r.data[r.count%r.depth], v)
	r.count++
}

// at copies the vector at absolute instant z into dst; now is the current
// instant (the newest stored entry). z is clamped to the stored window.
func (r *ring) at(z, now int, dst []float64) {
	copy(dst, r.slot(z, now))
}

// elem reads element i of the vector at absolute instant z.
func (r *ring) elem(z, now, i int) float64 {
	return r.slot(z, now)[i]
}

func (r *ring) slot(z, now int) []float64 {
	if z > now {
		z = now
	}
	oldest := now - (r.depth - 1)
	if z < oldest {
		z = oldest
	}
	if z < 0 {
		z = 0
	}
	return r.data[z%r.depth]
}
