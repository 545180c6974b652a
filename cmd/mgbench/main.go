// Command mgbench is the one driver of the paper's evaluation. -exp runs an
// entry of the harness experiment registry, or all of them in order: the
// Section III model figures (fig1, fig2), the fault and staleness sweeps,
// Figures 4-6 and Table I (fig4, fig5, table1, fig6) and the distmem
// message-volume sweep (msgvol).
//
// Every entry starts from its scaled default configuration, which -problem,
// -size, -runs, -threads, -tau and -seed override. An override the entry
// does not read is an error, and so is a list where it takes one value;
// under -exp all an override goes to the entries that read it.
//
// Examples:
//
//	mgbench -exp fig1 -size 8,10 -runs 2
//	mgbench -exp table1 -problem 27pt -size 20 -runs 5 -threads 32
//	mgbench -exp fig6 -threads 4,8,16,32
//	mgbench -exp all -runs 5 -out results     # scripts/reproduce.sh
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"asyncmg/internal/harness"
	"asyncmg/internal/obs"
	"asyncmg/internal/par"
)

// config is what the command line selects beyond the entries to run.
type config struct {
	out                      string
	ov                       harness.Overrides
	parWorkers, parThreshold int
	obs                      obs.Flags
}

// parseArgs turns the command line into the configuration and the checked
// entries to run. Every bad flag is an error here, before any run.
func parseArgs(args []string) (config, []harness.Experiment, error) {
	fs := flag.NewFlagSet("mgbench", flag.ContinueOnError)
	var c config
	exp := fs.String("exp", "", "experiment: fig1, fig2, fault, staleness, fig4, fig5, table1, fig6, msgvol, or all")
	fs.StringVar(&c.out, "out", "", "also write each experiment's output to DIR/<name>.txt (and DIR/staleness.json)")
	fs.StringVar(&c.ov.Problem, "problem", "", "run one problem family (default: the experiment's own)")
	fs.Var((*intList)(&c.ov.Sizes), "size", "comma-separated mesh parameters (default: the experiment's scaled sizes)")
	fs.IntVar(&c.ov.Runs, "runs", 0, "runs per measurement (0 = the experiment's default)")
	fs.Var((*intList)(&c.ov.Threads), "threads", "goroutine budget; fig6 takes a comma-separated list (default: the experiment's)")
	fs.Float64Var(&c.ov.Tau, "tau", 0, "time-to-tolerance threshold (0 = the experiment's; the paper's is 1e-9)")
	fs.Int64Var(&c.ov.Seed, "seed", 0, "right-hand-side or fault-schedule seed (0 = the experiment's)")
	fs.IntVar(&c.parWorkers, "par-workers", 0, "worker-pool size for the sharded level kernels (0 = GOMAXPROCS)")
	fs.IntVar(&c.parThreshold, "par-threshold", 0, "minimum kernel work before sharding; smaller levels stay serial (0 = default)")
	c.obs.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return c, nil, err
	}
	if fs.NArg() > 0 || *exp == "" {
		return c, nil, fmt.Errorf("want -exp NAME|all and flags only, got -exp %q and arguments %q", *exp, fs.Args())
	}
	exps, err := harness.Select(*exp, c.ov)
	return c, exps, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgbench: ")

	c, exps, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	par.SetWorkers(c.parWorkers)
	par.SetThreshold(c.parThreshold)
	if c.out != "" {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	o, finish, err := c.obs.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	c.ov.Observer = o
	for _, e := range exps {
		if len(exps) > 1 {
			fmt.Printf("===== %s =====\n", e.Name)
		}
		if err := e.Run(os.Stdout, c.ov, c.out); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
	}
	if err := finish(); err != nil {
		log.Fatal(err)
	}
}

// intList is a comma-separated integer list flag.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

// Set parses the list (it is the -size and -threads parser).
func (l *intList) Set(s string) error {
	*l = nil
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad integer %q: %v", f, err)
		}
		*l = append(*l, n)
	}
	return nil
}
