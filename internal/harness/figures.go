package harness

import (
	"fmt"
	"io"

	"asyncmg/internal/amg"
	"asyncmg/internal/async"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/model"
	"asyncmg/internal/obs"
	"asyncmg/internal/problem"
	"asyncmg/internal/smoother"
	"asyncmg/internal/solve"
	"asyncmg/internal/vec"
)

// paperEngine runs the paper's setup of src: amg.DefaultOptions (HMIS
// coarsening, classical modified interpolation) with agg aggressive
// levels, smoothed by kind at the family's ω.
func paperEngine(src solve.Source, agg int, kind smoother.Kind) (*engine.Engine, error) {
	opt := amg.DefaultOptions()
	opt.AggressiveLevels = agg
	return solve.Build(src, opt, smoother.Config{Kind: kind, Omega: problem.DefaultOmega(src.Problem), Blocks: 1}, false)
}

// Fig1Config parameterizes the semi-async model figure (Figure 1): final
// relative residual after Updates corrections versus grid length, for a set
// of minimum update probabilities, with δ = 0.
type Fig1Config struct {
	Problem string
	Method  engine.Method
	Sizes   []int
	Alphas  []float64
	Updates int
	Runs    int
	Agg     int // aggressive coarsening levels (paper: 1)
	// Observer, when non-nil, accumulates the per-grid relaxation counts
	// and staleness observations of every model run in the sweep (for
	// -metrics-out style exposition). The figure's own metrics columns are
	// computed per row regardless.
	Observer *obs.Observer
}

// DefaultFig1 mirrors the paper at reduced scale (the paper uses the 27pt
// set with sizes 40..80 and 20 runs).
func DefaultFig1(method engine.Method) Fig1Config {
	return Fig1Config{
		Problem: problem.Laplace27pt,
		Method:  method,
		Sizes:   []int{10, 14, 18},
		Alphas:  []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Updates: 20,
		Runs:    5,
		Agg:     1,
	}
}

// Fig1 prints the Figure 1 series: one row per grid size, one column per α,
// plus the synchronous reference.
func Fig1(w io.Writer, cfg Fig1Config) error {
	fmt.Fprintf(w, "# Figure 1 (%s): semi-async %s, delta=0, mean of %d runs\n",
		cfg.Problem, cfg.Method, cfg.Runs)
	cols := make([]modelColumn, len(cfg.Alphas))
	for i, a := range cfg.Alphas {
		cols[i] = modelColumn{fmt.Sprintf("alpha=%.1f", a), model.Config{Variant: model.SemiAsync, Alpha: a}}
	}
	return modelSweep(w, cfg.Problem, cfg.Sizes, cfg.Agg, cfg.Runs, cfg.Observer, cfg.Method, cfg.Updates, 7, cols)
}

// modelColumn is one column of a model figure: its header and the model
// configuration of its runs.
type modelColumn struct {
	name string
	cfg  model.Config
}

// modelSweep prints the body of a model figure (Figures 1 and 2). Each of
// prob's grid sizes is a row: the synchronous reference, each column's
// mean final residual over runs runs of updates corrections (run r seeded
// 1000·r + seed), then the metrics columns, mean relaxations per model run
// and the median correction staleness, which o accumulates.
func modelSweep(w io.Writer, prob string, sizes []int, agg, runs int, o *obs.Observer, method engine.Method, updates int, seed int64, cols []modelColumn) error {
	fmt.Fprintf(w, "# metrics: relax/run = mean relaxations per model run; stale-p50 = median read delay in sweeps\n")
	fmt.Fprintf(w, "%8s %12s", "n", "sync")
	for _, col := range cols {
		fmt.Fprintf(w, " %12s", col.name)
	}
	fmt.Fprintf(w, " %10s %9s\n", "relax/run", "stale-p50")
	for _, n := range sizes {
		s, err := paperEngine(solve.Source{Problem: prob, Size: n}, agg, smoother.WJacobi)
		if err != nil {
			return err
		}
		b := grid.RandomRHS(s.LevelSize(0), 42)
		row := obs.New(s.NumLevels())
		fmt.Fprintf(w, "%8d %12.3e", n, relResAfter(s, method, b, updates))
		for _, col := range cols {
			var vals []float64
			for run := 0; run < runs; run++ {
				mc := col.cfg
				mc.Method, mc.Updates, mc.Seed, mc.Observer = method, updates, int64(1000*run)+seed, row
				res, err := model.Run(s, b, mc)
				if err != nil {
					return err
				}
				vals = append(vals, res.RelRes)
			}
			fmt.Fprintf(w, " %12.3e", mean(vals))
		}
		snap := row.Snapshot()
		var relax int64
		for _, v := range snap.Relaxations {
			relax += v
		}
		perRun := float64(relax) / float64(max(1, runs*len(cols)))
		fmt.Fprintf(w, " %10.1f %9d\n", perRun, snap.Staleness.Quantile(0.5))
		o.Merge(row)
	}
	return nil
}

// Fig2Config parameterizes the full-async model figure (Figure 2): final
// relative residual versus grid length for a set of maximum delays δ, with
// α = 0.1, for the solution-based and residual-based variants.
type Fig2Config struct {
	Problem string
	Method  engine.Method
	Variant model.Variant // FullAsyncSolution or FullAsyncResidual
	Sizes   []int
	Deltas  []int
	Alpha   float64
	Updates int
	Runs    int
	Agg     int
	// Observer, when non-nil, accumulates the sweep's per-grid relaxation
	// counts and staleness observations (see Fig1Config.Observer).
	Observer *obs.Observer
}

// DefaultFig2 mirrors the paper at reduced scale.
func DefaultFig2(method engine.Method, variant model.Variant) Fig2Config {
	return Fig2Config{
		Problem: problem.Laplace27pt,
		Method:  method,
		Variant: variant,
		Sizes:   []int{10, 14, 18},
		Deltas:  []int{0, 2, 4, 8},
		Alpha:   0.1,
		Updates: 20,
		Runs:    5,
		Agg:     1,
	}
}

// Fig2 prints the Figure 2 series.
func Fig2(w io.Writer, cfg Fig2Config) error {
	fmt.Fprintf(w, "# Figure 2 (%s): %s %s, alpha=%.2f, mean of %d runs\n",
		cfg.Problem, cfg.Variant, cfg.Method, cfg.Alpha, cfg.Runs)
	cols := make([]modelColumn, len(cfg.Deltas))
	for i, d := range cfg.Deltas {
		cols[i] = modelColumn{fmt.Sprintf("delta=%d", d), model.Config{Variant: cfg.Variant, Alpha: cfg.Alpha, Delta: d}}
	}
	return modelSweep(w, cfg.Problem, cfg.Sizes, cfg.Agg, cfg.Runs, cfg.Observer, cfg.Method, cfg.Updates, 13, cols)
}

// Fig4Config parameterizes the grid-size-independence figure for the real
// parallel solvers (Figures 4 and 5): relative residual after a fixed
// number of V-cycles versus problem size, for a set of method variants and
// smoothers.
type Fig4Config struct {
	Problem   string
	Sizes     []int
	Smoothers []smoother.Kind
	Cycles    int
	Protocol  Protocol
	Agg       int // 1 for Figure 4 (stencils), 0 for Figure 5 (MFEM Laplace)
}

// DefaultFig4 mirrors Figure 4 at reduced scale (paper: 7pt and 27pt,
// sizes 40..80, ω-Jacobi + async GS, 68 threads, 20 runs).
func DefaultFig4(name string) Fig4Config {
	p := DefaultProtocol()
	p.Runs = 3
	p.Threads = 12
	return Fig4Config{
		Problem:   name,
		Sizes:     []int{8, 12, 16},
		Smoothers: []smoother.Kind{smoother.WJacobi, smoother.AsyncGS},
		Cycles:    20,
		Protocol:  p,
		Agg:       1,
	}
}

// DefaultFig5 is Figure 5: the Figure 4 sweep on the FEM Laplace set,
// without aggressive coarsening.
func DefaultFig5() Fig4Config {
	cfg := DefaultFig4(problem.LaplaceFEM)
	cfg.Sizes = []int{6, 8, 10}
	cfg.Agg = 0
	return cfg
}

// fig4Methods is the method set shown in Figures 4 and 5.
func fig4Methods() []Row {
	return []Row{
		row("sync Mult", engine.Mult, async.Config{Sync: true}),
		row("sync Multadd", engine.Multadd, async.Config{Sync: true, Write: async.LockWrite}),
		row("sync AFACx", engine.AFACx, async.Config{Sync: true, Write: async.LockWrite}),
		row("AFACx lock-write", engine.AFACx, async.Config{Write: async.LockWrite, Res: async.LocalRes}),
		row("Multadd lock global-res", engine.Multadd, async.Config{Write: async.LockWrite, Res: async.GlobalRes}),
		row("Multadd lock local-res", engine.Multadd, async.Config{Write: async.LockWrite, Res: async.LocalRes}),
	}
}

// Fig4 prints the Figure 4/5 series: for each smoother, a table of relative
// residual after cfg.Cycles V-cycles versus problem rows for each method.
func Fig4(w io.Writer, cfg Fig4Config) error {
	methods := fig4Methods()
	for _, kind := range cfg.Smoothers {
		fmt.Fprintf(w, "# Figure 4/5 (%s, smoother=%v): rel res after %d cycles, %d threads, mean of %d runs\n",
			cfg.Problem, kind, cfg.Cycles, cfg.Protocol.Threads, cfg.Protocol.Runs)
		fmt.Fprintf(w, "%10s", "rows")
		for _, m := range methods {
			fmt.Fprintf(w, " %24s", m.Label)
		}
		fmt.Fprintln(w)
		for _, n := range cfg.Sizes {
			s, err := paperEngine(solve.Source{Problem: cfg.Problem, Size: n}, cfg.Agg, kind)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%10d", s.LevelSize(0))
			for _, m := range methods {
				v, div := cfg.Protocol.MeanRelRes(s, m, cfg.Cycles)
				if div {
					fmt.Fprintf(w, " %24s", "†")
				} else {
					fmt.Fprintf(w, " %24.3e", v)
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Table1Config parameterizes the Table I reproduction.
type Table1Config struct {
	Problem   string
	Size      int
	Smoothers []smoother.Kind
	Protocol  Protocol
	Agg       int // paper: 2 aggressive levels for Table I
}

// DefaultTable1 mirrors one Table I panel at reduced scale (the paper's
// sizes: 7pt/27pt 30, MFEM Laplace ~29.5k rows, MFEM Elasticity ~37k rows;
// 272 threads; 20 runs).
func DefaultTable1(name string) Table1Config {
	cfg := Table1Config{
		Problem: name,
		Size:    12,
		Smoothers: []smoother.Kind{
			smoother.WJacobi, smoother.L1Jacobi, smoother.HybridJGS, smoother.AsyncGS,
		},
		Protocol: DefaultProtocol(),
		Agg:      2,
	}
	if name == problem.Elasticity {
		cfg.Size, cfg.Agg = elasticityProtocol(&cfg.Protocol)
	}
	return cfg
}

// elasticityProtocol applies the protocol Table I and Figure 6 share on
// the vector problem and returns its mesh size and aggressive levels. The
// vector problem is the paper's hardest family and our unknown-approach
// interpolation is simpler than BoomerAMG's systems interpolation, so the
// per-cycle rate is ~0.95 instead of the paper's ~0.90: sweep a longer
// budget, skip aggressive coarsening (it destroys the delicate vector
// interpolation), and measure at tau 1e-6 — the method ordering matches
// the paper's 1e-9 table (see EXPERIMENTS.md). Size 4, because its
// unknowns grow 3× faster than a scalar family's.
func elasticityProtocol(p *Protocol) (size, agg int) {
	p.CycleStep = 25
	p.CycleMax = 600
	p.Tau = 1e-6
	return 4, 0
}

// Table1 prints one panel of Table I: for each smoother, the
// time/corrects/V-cycles triple for all twelve method variants.
func Table1(w io.Writer, cfg Table1Config) error {
	a, err := problem.Build(cfg.Problem, cfg.Size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Table I (%s): %d rows, %d nonzeros; tau=%.0e, %d threads, mean of %d runs\n",
		cfg.Problem, a.Rows, a.NNZ(), cfg.Protocol.Tau, cfg.Protocol.Threads, cfg.Protocol.Runs)
	// One setup per smoother (the smoothed interpolants depend on the
	// smoother's iteration matrix).
	for _, kind := range cfg.Smoothers {
		s, err := paperEngine(solve.Source{Problem: cfg.Problem, Matrix: a}, cfg.Agg, kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n## smoother: %v (omega=%.2f)\n", kind, s.Cfg.Omega)
		fmt.Fprintf(w, "%-36s %10s %8s %8s\n", "method", "time(s)", "corrects", "V-cycles")
		for _, m := range TableIMethods() {
			r := cfg.Protocol.TimeToTol(s, m)
			fmt.Fprintf(w, "%-36s %s\n", m.Label, FormatTT(r))
		}
	}
	return nil
}

// Fig6Config parameterizes the thread-scaling figure (Figure 6):
// time-to-tolerance versus thread count for sync Mult, sync Multadd, and
// async Multadd (lock-write, local-res).
type Fig6Config struct {
	Problem  string
	Size     int
	Threads  []int
	Protocol Protocol
	Agg      int
}

// DefaultFig6 mirrors Figure 6 at reduced scale (the paper sweeps 1..272
// threads on four matrices with ω-Jacobi smoothing).
func DefaultFig6(name string) Fig6Config {
	cfg := Fig6Config{
		Problem:  name,
		Size:     12,
		Threads:  []int{8, 16, 32},
		Protocol: DefaultProtocol(),
		Agg:      2,
	}
	switch name {
	case problem.Elasticity:
		cfg.Size, cfg.Agg = elasticityProtocol(&cfg.Protocol)
	case problem.LaplaceFEM:
		cfg.Size, cfg.Agg = 10, 0
	}
	return cfg
}

// Fig6 prints the Figure 6 series. Alongside wall-clock time (whose
// async-vs-sync crossover needs real hardware parallelism; see
// EXPERIMENTS.md) it prints the number of global synchronization points per
// cycle, where the paper's ordering Mult ≫ sync Multadd > async Multadd is
// architecture-independent.
func Fig6(w io.Writer, cfg Fig6Config) error {
	s, err := paperEngine(solve.Source{Problem: cfg.Problem, Size: cfg.Size}, cfg.Agg, smoother.WJacobi)
	if err != nil {
		return err
	}
	methods := []Row{
		row("sync Mult", engine.Mult, async.Config{Sync: true}),
		row("sync Multadd lock-write", engine.Multadd, async.Config{Sync: true, Write: async.LockWrite}),
		row("Multadd lock-write local-res", engine.Multadd, async.Config{Write: async.LockWrite, Res: async.LocalRes}),
	}
	l := s.NumLevels()
	// Global synchronization points per V-cycle: Mult synchronizes all
	// threads after every per-level operation on the way down and up
	// (~6 per level); sync Multadd only once, for the global residual;
	// async Multadd never.
	globalSyncs := []int{6 * l, 1, 0}
	fmt.Fprintf(w, "# Figure 6 (%s, %d rows): time-to-tau vs threads; tau=%.0e\n",
		cfg.Problem, s.LevelSize(0), cfg.Protocol.Tau)
	fmt.Fprintf(w, "%10s", "threads")
	for i, m := range methods {
		fmt.Fprintf(w, " %28s", fmt.Sprintf("%s (gsync/cyc=%d)", m.Label, globalSyncs[i]))
	}
	fmt.Fprintln(w)
	for _, th := range cfg.Threads {
		if th < l {
			continue // async methods need one thread per grid
		}
		p := cfg.Protocol
		p.Threads = th
		fmt.Fprintf(w, "%10d", th)
		for _, m := range methods {
			r := p.TimeToTol(s, m)
			if r.Verdict >= vec.Grew {
				fmt.Fprintf(w, " %28s", "†")
			} else {
				fmt.Fprintf(w, " %28.4f", r.Seconds)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
