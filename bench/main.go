// Command bench is the repository's benchmark: seven named workloads, each
// run in its own process, reporting the bounded end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). README.md and WORKLOADS.md in
// this directory say how to run it and why each workload exists;
// BENCHMARK.json at the repository root declares the same names and bounds.
// From the repository root:
//
//	sh bench/run.sh -all            every workload, untraced, writes bench/out/result.json
//	sh bench/run.sh -all -trace     the separate traced run (per-layer metrics)
//	sh bench/run.sh -repeat 2       two full sets, compared against the bounds
//	sh bench/run.sh --workload lib-async --seed 3 --seconds 12 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runners maps each workload to the function that runs it in this process.
var runners = map[string]func(*runCtx) (*outcome, error){
	"lib-sync-csr":  runLibSyncCSR,
	"lib-setup-mix": runLibSetupMix,
	"lib-async":     runLibAsync,
	"lib-pcg-mf":    runLibPCGMF,
	"serve-hot":     runServeHot,
	"serve-churn":   runServeChurn,
	"cluster-hot":   runClusterHot,
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a workload run's standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process")
		all      = flag.Bool("all", false, "run every workload, one child process each")
		repeat   = flag.Int("repeat", 0, "run this many full untraced sets and compare them against the bounds")
		seed     = flag.Int64("seed", 1, "seed of the input generator")
		seconds  = flag.Float64("seconds", runSeconds, "measured window of one workload run")
		trace    = flag.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and traces")
	)
	flag.CommandLine.Parse(joinTraceArg(os.Args[1:]))
	var err error
	switch {
	case *workload != "":
		err = runOne(os.Stdout, *workload, *seed, *seconds, *trace, fullSizes, *outDir)
	case *repeat > 0:
		err = runRepeat(*repeat, *seed, *seconds, *outDir)
	case *all:
		_, err = runAll(*seed, *seconds, *trace, *outDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceArg lets the boolean -trace also be given as "--trace 0" and
// "--trace 1", the form the benchmark driver uses.
func joinTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runOne runs one workload in this process and prints its metrics by name
// with their units, then the report line. An untraced run reports the
// end-to-end metrics. A traced run reports the per-layer metrics: the ones of
// the layers this workload drives as measured, the others as 0, because a
// report names every declared metric.
func runOne(w io.Writer, name string, seed int64, seconds float64, traced bool, sz sizes, outDir string) error {
	run, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rc := newRunCtx(seed, seconds, sz)
	if traced {
		rc.tr = newTracer()
	}
	fmt.Fprintf(w, "workload %s seed=%d seconds=%g traced=%v clients=%d\n", name, seed, seconds, traced, rc.clients)
	cpu := markCPU()
	o, err := run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	granted, _ := cpu.since()
	rc.notef("the hypervisor withheld %.1f %% of the CPU time this run asked for; end-to-end times are wall time less what was withheld while each was measured", 100*(1-granted))
	o.e2e["peak_rss_mb"] = peakRSSMB()
	specs, got := endToEnd, o.e2e
	if traced {
		if err := rc.tr.flush(outDir, name); err != nil {
			return err
		}
		specs, got = perLayer, o.layer
	}
	for _, n := range rc.notes {
		fmt.Fprintln(w, "note:", n)
	}
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range specs {
		v, ok := got[m.Name]
		switch {
		case !m.ownedBy(name) && !ok:
			rep.Metrics[m.Name] = value{0, m.Unit}
			continue
		case !m.ownedBy(name):
			return fmt.Errorf("%s: measured %s, which belongs to %s", name, m.Name, m.Owner)
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("%s: metric %s was not measured (got %v)", name, m.Name, v)
		}
		rep.Metrics[m.Name] = value{v, m.Unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	fmt.Fprintf(w, "%-36s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// ---- -all and -repeat ----

// section is one kind of run in result.json: each workload's metrics and
// failure count.
type section struct {
	Seed       int64                       `json:"seed"`
	RunSeconds float64                     `json:"run_seconds"`
	Metrics    map[string]map[string]value `json:"metrics"`
	Failed     map[string]int              `json:"failed"`
	Attempted  map[string]int              `json:"attempted"`
}

// resultFile is bench/out/result.json: the untraced and the traced run each
// write their own section and keep the other's.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	EndToEnd    *section    `json:"end_to_end,omitempty"`
	PerLayer    *section    `json:"per_layer,omitempty"`
}

// runAll runs every workload in a child process of its own, so heap, worker
// pool and cache state never leak from one workload into the next, prints
// the combined table and updates result.json.
func runAll(seed int64, seconds float64, traced bool, outDir string) (map[string]report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reports := map[string]report{}
	start := time.Now()
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace="+strconv.FormatBool(traced), "-out", outDir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		rep, err := lastLineReport(out.Bytes())
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		fmt.Printf("-- %s took %.1f s\n\n", w.Name, time.Since(t0).Seconds())
		reports[w.Name] = rep
	}
	fmt.Printf("== all %d workloads in %.1f s\n", len(workloads), time.Since(start).Seconds())
	printTable(reports, traced)
	return reports, writeResult(outDir, seed, seconds, traced, reports)
}

func lastLineReport(out []byte) (report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, fmt.Errorf("no report line: %w", err)
	}
	return rep, nil
}

// printTable prints metrics down and workloads across. In the traced table a
// blank cell is a layer the workload does not drive.
func printTable(reports map[string]report, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	fmt.Printf("%-36s", "metric [unit]")
	for _, w := range workloads {
		fmt.Printf(" %13s", w.Name)
	}
	fmt.Println()
	for _, m := range specs {
		fmt.Printf("%-36s", m.Name+" ["+m.Unit+"]")
		for _, w := range workloads {
			if m.ownedBy(w.Name) {
				fmt.Printf(" %13.5g", reports[w.Name].Metrics[m.Name].Value)
			} else {
				fmt.Printf(" %13s", "")
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-36s", "fail_ratio [ratio]")
	for _, w := range workloads {
		r := reports[w.Name]
		fmt.Printf(" %13.5g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Println()
}

// writeResult replaces this kind of run's section of result.json. A workload's
// per-layer section holds only the layers it drives, so every per-layer metric
// is recorded once, by the workload that measured it.
func writeResult(outDir string, seed int64, seconds float64, traced bool, reports map[string]report) error {
	path := filepath.Join(outDir, "result.json")
	var res resultFile
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &res) // a damaged file is simply replaced
	}
	res.Fingerprint = machineFingerprint()
	sec := &section{Seed: seed, RunSeconds: seconds, Metrics: map[string]map[string]value{}, Failed: map[string]int{}, Attempted: map[string]int{}}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for name, r := range reports {
		sec.Metrics[name] = map[string]value{}
		for _, m := range specs {
			if v, ok := r.Metrics[m.Name]; ok && m.ownedBy(name) {
				sec.Metrics[name][m.Name] = v
			}
		}
		sec.Failed[name], sec.Attempted[name] = r.Failed, r.Attempted
	}
	if traced {
		res.PerLayer = sec
	} else {
		res.EndToEnd = sec
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// exactOn lists the workloads whose counts are a function of the seed alone,
// so that two runs of one commit must agree on them to the last digit.
var exactOn = map[string]bool{"lib-sync-csr": true, "lib-setup-mix": true, "lib-pcg-mf": true}

// runRepeat runs n full untraced sets and prints, per metric and workload,
// how far the worst set is from the best, relative to the metric's bound. It
// fails if any pair of sets differs by more than the bound in either
// direction, if iters or hier_mb do not repeat exactly on the deterministic
// workloads, or if any operation failed.
func runRepeat(n int, seed int64, seconds float64, outDir string) error {
	var sets []map[string]report
	for i := 0; i < n; i++ {
		fmt.Printf("==== set %d of %d\n", i+1, n)
		reports, err := runAll(seed, seconds, false, outDir)
		if err != nil {
			return err
		}
		sets = append(sets, reports)
	}
	breaches := 0
	fmt.Printf("\n%-14s %-14s %12s %12s %9s %7s\n", "workload", "metric", "best", "worst", "worse", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var vs []float64
			for _, set := range sets {
				vs = append(vs, set[w.Name].Metrics[m.Name].Value)
			}
			vs = sorted(vs)
			best, worst := vs[0], vs[len(vs)-1]
			if m.Better == "higher" {
				best, worst = worst, best
			}
			// Worse relative to the better of the two, so the test does not
			// depend on which set ran first.
			worse := math.Abs(worst-best) / math.Abs(best)
			flag := ""
			switch {
			case worse > m.Bound:
				flag = "  BREACH"
				breaches++
			case worse != 0 && exactOn[w.Name] && (m.Name == "iters" || m.Name == "hier_mb"):
				flag = "  NOT EXACT"
				breaches++
			}
			fmt.Printf("%-14s %-14s %12.5g %12.5g %8.2f%% %6.0f%%%s\n", w.Name, m.Name, best, worst, 100*worse, 100*m.Bound, flag)
		}
		for _, set := range sets {
			if f := set[w.Name].Failed; f > 0 {
				fmt.Printf("%-14s %d operations failed\n", w.Name, f)
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds between sets of the same commit", breaches)
	}
	return nil
}
