package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The smoke tier: every workload at n=8 for a fraction of a second, to prove
// under plain `go test ./...` that each one runs, passes its own correctness
// checks and emits every declared metric. Timings at this size mean nothing.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeRun(t *testing.T, workload string, traced bool) report {
	t.Helper()
	var out bytes.Buffer
	if err := runOne(&out, workload, 1, 0.3, traced, smokeSizes, t.TempDir()); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	rep, err := lastLineReport(out.Bytes())
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", workload, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, rep report, specs []metricSpec) {
	t.Helper()
	if len(rep.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(rep.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
		} else if v.Unit != m.Unit || v.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, declared %q", workload, m.Name, v.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		checkMetrics(t, w.Name, smokeRun(t, w.Name, false), endToEnd)
	}
}

// Every traced run names every per-layer metric; runOne fails unless the
// workload measured exactly the ones it owns, and each metric has an owner.
func TestEveryTracedWorkloadEmitsEveryPerLayerMetric(t *testing.T) {
	for _, w := range workloads {
		rep := smokeRun(t, w.Name, true)
		checkMetrics(t, w.Name, rep, perLayer)
		// At n=8 an operation is microseconds long and mostly span overhead,
		// so only the range of a share is checked here; the full run's
		// result.json is held to 0.9-1.1 below.
		if c := rep.Metrics["bench.span_coverage"].Value; c <= 0 || c > 1.1 {
			t.Errorf("%s: bench.span_coverage = %v", w.Name, c)
		}
		if w.Name == "lib-sync-csr" {
			if a := rep.Metrics["engine.cycle_allocs"].Value; a != 0 {
				t.Errorf("engine.cycle_allocs = %v, want 0", a)
			}
		}
	}
	for _, m := range perLayer {
		if _, ok := runners[m.Owner]; !ok && m.Owner != "" {
			t.Errorf("%s: owner %q is not a workload", m.Name, m.Owner)
		}
	}
}

func TestDeclaredNamesAndCounts(t *testing.T) {
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s", m.Name, m.Bound)
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from spec.go")
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from spec.go")
	}
	declared := append([]metricSpec(nil), perLayer...)
	for i := range declared {
		declared[i].Owner = "" // not part of BENCHMARK.json
	}
	if !reflect.DeepEqual(b.PerLayer, declared) {
		t.Errorf("BENCHMARK.json per_layer differs from spec.go")
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"sh", "bench/run.sh"}) {
		t.Errorf("command = %v", b.Command)
	}
}

// checkResult verifies a result.json against BENCHMARK.json: every workload
// has every end-to-end metric and its failure count, and whatever per-layer
// section exists has every per-layer metric once per workload that owns it,
// each with its declared unit.
func checkResult(t *testing.T, path string, b benchmarkJSON, wantLayers bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint.GoVersion == "" || res.Fingerprint.NumCPU == 0 {
		t.Errorf("%s: no machine fingerprint", path)
	}
	check := func(name string, sec *section, specs []metricSpec) {
		if sec == nil {
			t.Errorf("%s: no %s section", path, name)
			return
		}
		for _, w := range b.Workloads {
			if sec.Attempted[w.Name] < 1 || sec.Failed[w.Name] != 0 {
				t.Errorf("%s: %s %s: failed %d of %d attempted", path, name, w.Name, sec.Failed[w.Name], sec.Attempted[w.Name])
			}
			for _, m := range specs {
				v, ok := sec.Metrics[w.Name][m.Name]
				if ok != m.ownedBy(w.Name) || (ok && v.Unit != m.Unit) {
					t.Errorf("%s: %s %s/%s: got %+v (present=%v), want unit %q", path, name, w.Name, m.Name, v, ok, m.Unit)
				}
				ratio := m.Name == "bench.span_coverage" || strings.HasPrefix(m.Name, "amg.stage_sum_over_total")
				if ok && ratio && wantLayers && (v.Value < 0.9 || v.Value > 1.1) {
					t.Errorf("%s: %s/%s = %v, want within 0.9-1.1", path, w.Name, m.Name, v.Value)
				}
			}
		}
	}
	check("end_to_end", res.EndToEnd, endToEnd)
	if wantLayers {
		check("per_layer", res.PerLayer, perLayer)
	}
}

func TestResultRoundTrips(t *testing.T) {
	b := readBenchmarkJSON(t)
	// A result written by this build.
	dir := t.TempDir()
	reports := map[string]report{}
	for _, w := range workloads {
		rep := report{Correct: true, Attempted: 1, Metrics: map[string]value{}}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = value{1, m.Unit}
		}
		reports[w.Name] = rep
	}
	if err := writeResult(dir, 1, runSeconds, false, reports); err != nil {
		t.Fatal(err)
	}
	checkResult(t, filepath.Join(dir, "result.json"), b, false)
	// The checked-in result of the full run.
	checkResult(t, filepath.Join("out", "result.json"), b, true)
}

func TestJoinTraceArg(t *testing.T) {
	got := joinTraceArg([]string{"--workload", "x", "--trace", "1", "--seed", "3"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := joinTraceArg([]string{"-all", "-trace"}); !reflect.DeepEqual(got, []string{"-all", "-trace"}) {
		t.Errorf("got %v", got)
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	tr := newTracer()
	tr.record(span{ID: 1, Name: "root", Start: 0, End: 100})
	tr.record(span{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50})
	tr.record(span{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90}) // overlaps a
	tr.record(span{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30})
	self, dur, cov := tr.selfTimes(0, "root")
	if dur["root"] != 100e-9 {
		t.Errorf("dur[root] = %v", dur["root"])
	}
	if cov != 0.8 {
		t.Errorf("coverage %v, want 0.8", cov)
	}
	for name, want := range map[string]float64{"root": 20e-9, "a": 30e-9, "b": 50e-9, "c": 10e-9} {
		if d := self[name] - want; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}
