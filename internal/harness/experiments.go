package harness

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"asyncmg/internal/engine"
	"asyncmg/internal/model"
	"asyncmg/internal/obs"
	"asyncmg/internal/problem"
)

// Overrides is the one knob set a run of a registry entry may change from
// the entry's Default* config. A zero field keeps the default.
type Overrides struct {
	Problem  string
	Sizes    []int
	Runs     int
	Threads  []int
	Tau      float64
	Seed     int64
	Observer *obs.Observer // an output, so every entry takes it
}

// The overrides an entry reads, in knobNames order.
const (
	kProblem = 1 << iota
	kSize
	kRuns
	kThreads
	kTau
	kSeed
)

var knobNames = []string{"problem", "size", "runs", "threads", "tau", "seed"}

// Experiment is one registry entry: a figure, table or sweep of the
// evaluation.
type Experiment struct {
	Name string
	// reads are the overrides the entry takes, lists those of them that
	// may be a list (sizes, threads).
	reads, lists int
	// run applies ov to the entry's Default* config, prints the result to
	// w and returns its machine-checkable form, if it has one.
	run func(w io.Writer, ov Overrides) (jsonWriter, error)
}

// jsonWriter is an entry's machine-checkable result (the staleness map).
type jsonWriter interface{ WriteJSON(io.Writer) error }

// Experiments returns the registry in run order: the §III model figures,
// the fault and staleness sweeps, the parallel-solver figures and Table I,
// and the message-volume sweep.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", kProblem | kSize | kRuns, kSize, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			return nil, each(w, []Fig1Config{DefaultFig1(engine.AFACx), DefaultFig1(engine.Multadd)}, func(c Fig1Config) error {
				ov.model(&c.Problem, &c.Sizes, &c.Runs, &c.Observer)
				return Fig1(w, c)
			})
		}},
		{"fig2", kProblem | kSize | kRuns, kSize, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			var cfgs []Fig2Config
			for _, m := range []engine.Method{engine.AFACx, engine.Multadd} {
				cfgs = append(cfgs, DefaultFig2(m, model.FullAsyncSolution), DefaultFig2(m, model.FullAsyncResidual))
			}
			return nil, each(w, cfgs, func(c Fig2Config) error {
				ov.model(&c.Problem, &c.Sizes, &c.Runs, &c.Observer)
				return Fig2(w, c)
			})
		}},
		{"fault", kProblem | kSize | kSeed, 0, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			c := DefaultFault()
			ov.sweep(&c.Problem, &c.Size, &c.Seed, &c.Observer)
			return nil, FaultSweep(w, c)
		}},
		{"staleness", kProblem | kSize | kSeed, 0, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			c := DefaultStaleness()
			ov.sweep(&c.Problem, &c.Size, &c.Seed, &c.Observer)
			m, err := StalenessSweep(w, c)
			return m, err // Run reads m only when err is nil
		}},
		{"fig4", kProblem | kSize | kRuns | kThreads | kSeed, kSize, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			return nil, each(w, ov.problems(problem.Laplace7pt, problem.Laplace27pt), func(p string) error { return ov.fig4(w, DefaultFig4(p)) })
		}},
		{"fig5", kSize | kRuns | kThreads | kSeed, kSize, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			return nil, ov.fig4(w, DefaultFig5())
		}},
		{"table1", kProblem | kSize | kRuns | kThreads | kTau | kSeed, 0, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			return nil, each(w, ov.problems(problem.Paper()...), func(p string) error {
				c := DefaultTable1(p)
				ov.size(&c.Size)
				ov.protocol(&c.Protocol)
				return Table1(w, c)
			})
		}},
		{"fig6", kProblem | kSize | kRuns | kThreads | kTau | kSeed, kThreads, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			return nil, each(w, ov.problems(problem.Paper()...), func(p string) error {
				c := DefaultFig6(p)
				ov.size(&c.Size)
				if len(ov.Threads) > 0 {
					c.Threads = ov.Threads
				}
				ov.protocol(&c.Protocol) // Fig6 overwrites the protocol's threads per row
				return Fig6(w, c)
			})
		}},
		{"msgvol", kProblem | kSize | kSeed, 0, func(w io.Writer, ov Overrides) (jsonWriter, error) {
			c := DefaultMsgVolume()
			ov.sweep(&c.Problem, &c.Size, &c.Seed, &c.Observer)
			_, err := MsgVolume(w, c)
			return nil, err
		}},
	}
}

// Select returns the entries name picks, one or "all" in registry order,
// after checking ov against each. One entry must read every override it
// is given; under "all" an override goes to the entries that read it.
// Either way a list where an entry takes one value is an error.
func Select(name string, ov Overrides) ([]Experiment, error) {
	bad := func(min int) func(int) bool { return func(n int) bool { return n < min } }
	switch {
	case ov.Problem != "" && !slices.Contains(problem.Known(), ov.Problem):
		return nil, fmt.Errorf("unknown problem %q (want %v)", ov.Problem, problem.Known())
	case slices.ContainsFunc(ov.Sizes, bad(2)) || slices.ContainsFunc(ov.Threads, bad(1)) ||
		ov.Runs < 0 || ov.Tau < 0 || ov.Tau >= 1:
		return nil, fmt.Errorf("overrides out of range (sizes ≥ 2, threads ≥ 1, runs ≥ 0, 0 ≤ tau < 1): %+v", ov)
	}
	var out []Experiment
	for _, e := range Experiments() {
		if name == "all" || e.Name == name {
			if err := e.check(ov, name == "all"); err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

// check reports an override e does not read (unless all is set) and a
// list given where e takes one value.
func (e Experiment) check(ov Overrides, all bool) error {
	var set, many int
	for i, on := range []bool{ov.Problem != "", len(ov.Sizes) > 0, ov.Runs > 0, len(ov.Threads) > 0, ov.Tau > 0, ov.Seed != 0} {
		if on {
			set |= 1 << i
		}
	}
	if len(ov.Sizes) > 1 {
		many |= kSize
	}
	if len(ov.Threads) > 1 {
		many |= kThreads
	}
	if k := set &^ e.reads; k != 0 && !all {
		return fmt.Errorf("experiment %s does not read %s", e.Name, knobNames[bits.TrailingZeros(uint(k))])
	}
	if k := many & e.reads &^ e.lists; k != 0 {
		return fmt.Errorf("experiment %s takes one %s", e.Name, knobNames[bits.TrailingZeros(uint(k))])
	}
	return nil
}

// Run runs e under ov and prints its output to w. With dir set it then
// writes the output to dir/<name>.txt and the entry's machine-checkable
// result, if it has one, to dir/<name>.json; a failed run writes neither.
func (e Experiment) Run(w io.Writer, ov Overrides, dir string) error {
	var out bytes.Buffer
	res, err := e.run(io.MultiWriter(w, &out), ov)
	if err != nil || dir == "" {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, e.Name+".txt"), out.Bytes(), 0o644); err != nil || res == nil {
		return err
	}
	out.Reset()
	if err := res.WriteJSON(&out); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, e.Name+".json"), out.Bytes(), 0o644)
}

// each runs f on every item and ends each item's output with a blank line.
func each[T any](w io.Writer, items []T, f func(T) error) error {
	for _, it := range items {
		if err := f(it); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// set overwrites *dst with v unless v is the zero value.
func set[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// size applies a one-value size override.
func (ov Overrides) size(dst *int) {
	if len(ov.Sizes) > 0 {
		*dst = ov.Sizes[0]
	}
}

// problems is the entry's problem list, or the overriding problem.
func (ov Overrides) problems(defaults ...string) []string {
	if ov.Problem != "" {
		return []string{ov.Problem}
	}
	return defaults
}

// model applies the overrides of a model figure.
func (ov Overrides) model(problem *string, sizes *[]int, runs *int, o **obs.Observer) {
	set(problem, ov.Problem)
	if len(ov.Sizes) > 0 {
		*sizes = ov.Sizes
	}
	set(runs, ov.Runs)
	*o = ov.Observer
}

// sweep applies the overrides of a one-size sweep.
func (ov Overrides) sweep(problem *string, size *int, seed *int64, o **obs.Observer) {
	set(problem, ov.Problem)
	ov.size(size)
	set(seed, ov.Seed)
	*o = ov.Observer
}

// protocol applies the runs, one-value threads, tau, seed and observer
// overrides to a measurement protocol.
func (ov Overrides) protocol(p *Protocol) {
	set(&p.Runs, ov.Runs)
	if len(ov.Threads) > 0 {
		p.Threads = ov.Threads[0]
	}
	set(&p.Tau, ov.Tau)
	set(&p.Seed0, ov.Seed)
	p.Observer = ov.Observer
}

// fig4 runs one Figure 4/5 panel under the overrides.
func (ov Overrides) fig4(w io.Writer, c Fig4Config) error {
	if len(ov.Sizes) > 0 {
		c.Sizes = ov.Sizes
	}
	ov.protocol(&c.Protocol)
	return Fig4(w, c)
}
