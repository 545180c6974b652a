package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelectOverrides crosses registry entries with overrides: an entry
// accepts the knobs it reads and rejects the rest, and a list is rejected
// where the entry takes one value.
func TestSelectOverrides(t *testing.T) {
	for _, tc := range []struct {
		exp string
		ov  Overrides
		ok  bool
	}{
		{"fig1", Overrides{Problem: Problem7pt, Sizes: []int{8, 10}, Runs: 2}, true},
		{"fig1", Overrides{Threads: []int{4}}, false},
		{"fig1", Overrides{Tau: 1e-6}, false},
		{"fig1", Overrides{Seed: 2}, false},
		{"fig2", Overrides{Sizes: []int{6}, Runs: 1}, true},
		{"fig2", Overrides{Seed: 2}, false},
		{"fault", Overrides{Problem: Problem7pt, Sizes: []int{8}, Seed: 7}, true},
		{"fault", Overrides{Sizes: []int{8, 10}}, false},
		{"fault", Overrides{Runs: 2}, false},
		{"staleness", Overrides{Sizes: []int{8}, Seed: 2}, true},
		{"staleness", Overrides{Threads: []int{4}}, false},
		{"fig4", Overrides{Problem: Problem27pt, Sizes: []int{8, 12}, Runs: 1, Threads: []int{4}, Seed: 2}, true},
		{"fig4", Overrides{Threads: []int{4, 8}}, false},
		{"fig4", Overrides{Tau: 1e-6}, false},
		{"fig5", Overrides{Sizes: []int{6, 8}, Runs: 1, Threads: []int{4}, Seed: 2}, true},
		{"fig5", Overrides{Problem: Problem27pt}, false},
		{"table1", Overrides{Problem: Problem7pt, Sizes: []int{8}, Runs: 1, Threads: []int{8}, Tau: 1e-6, Seed: 2}, true},
		{"table1", Overrides{Sizes: []int{8, 12}}, false},
		{"table1", Overrides{Threads: []int{8, 16}}, false},
		{"fig6", Overrides{Problem: Problem7pt, Sizes: []int{8}, Runs: 1, Threads: []int{4, 8}, Tau: 1e-6, Seed: 2}, true},
		{"fig6", Overrides{Sizes: []int{8, 12}}, false},
		{"msgvol", Overrides{Problem: Problem7pt, Sizes: []int{12}, Seed: 3}, true},
		{"msgvol", Overrides{Runs: 1}, false},
		{"all", Overrides{Problem: Problem7pt, Sizes: []int{8}, Runs: 1, Tau: 1e-6, Seed: 2}, true},
		{"all", Overrides{Sizes: []int{8, 12}}, false},  // table1 takes one size
		{"all", Overrides{Threads: []int{4, 8}}, false}, // fig4 takes one thread count
		{"fig1", Overrides{Problem: "nope"}, false},
		{"fig1", Overrides{Sizes: []int{1}}, false},
		{"fig1", Overrides{Runs: -1}, false},
		{"table1", Overrides{Tau: 1}, false},
		{"fig6", Overrides{Threads: []int{0}}, false},
		{"fig3", Overrides{}, false},
	} {
		exps, err := Select(tc.exp, tc.ov)
		if (err == nil) != tc.ok {
			t.Errorf("Select(%s, %+v): err %v, want ok=%v", tc.exp, tc.ov, err, tc.ok)
		}
		if err == nil && tc.exp != "all" && (len(exps) != 1 || exps[0].Name != tc.exp) {
			t.Errorf("Select(%s) = %v", tc.exp, exps)
		}
	}
	if exps, err := Select("all", Overrides{}); err != nil || len(exps) != len(Experiments()) {
		t.Errorf("Select(all) = %d entries, %v", len(exps), err)
	}
}

// TestExperimentsAtTestScale runs every registry entry at its smallest
// size and one run through the -out path, and checks the header line,
// which shows the overrides applied, and the files the run wrote.
func TestExperimentsAtTestScale(t *testing.T) {
	cases := map[string]struct {
		ov     Overrides
		header string
	}{
		"fig1":      {Overrides{Sizes: []int{6}, Runs: 1}, "# Figure 1 (27pt): semi-async afacx, delta=0, mean of 1 runs"},
		"fig2":      {Overrides{Sizes: []int{6}, Runs: 1}, "# Figure 2 (27pt): full-async-solution afacx, alpha=0.10, mean of 1 runs"},
		"fault":     {Overrides{Sizes: []int{6}}, "# Fault sweep (7pt n=6): distributed Multadd, 40 corrections/grid, 2 levels, seed 1"},
		"staleness": {Overrides{}, "# Staleness sweep (7pt n=8): async additive, 240 cycles/grid, 2 levels, tol 1e-03"},
		"fig4":      {Overrides{Problem: Problem7pt, Sizes: []int{6}, Runs: 1, Threads: []int{4}}, "# Figure 4/5 (7pt, smoother=w-jacobi): rel res after 20 cycles, 4 threads, mean of 1 runs"},
		"fig5":      {Overrides{Sizes: []int{6}, Runs: 1}, "# Figure 4/5 (mfem-laplace, smoother=w-jacobi): rel res after 20 cycles, 12 threads, mean of 1 runs"},
		"table1":    {Overrides{Problem: Problem7pt, Sizes: []int{6}, Runs: 1, Tau: 1e-6}, "# Table I (7pt): 216 rows, 1296 nonzeros; tau=1e-06, 16 threads, mean of 1 runs"},
		"fig6":      {Overrides{Problem: Problem7pt, Sizes: []int{6}, Runs: 1, Threads: []int{8}, Tau: 1e-6}, "# Figure 6 (7pt, 216 rows): time-to-tau vs threads; tau=1e-06"},
		"msgvol":    {Overrides{Problem: Problem7pt, Sizes: []int{8}}, "# distmem message volume, 7pt multadd size=8 theta=0.25, 60 corrections"},
	}
	dir := t.TempDir()
	for _, e := range Experiments() {
		tc, ok := cases[e.Name]
		if !ok {
			t.Errorf("no test-scale case for entry %s", e.Name)
			continue
		}
		exps, err := Select(e.Name, tc.ov)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := exps[0].Run(&buf, tc.ov, dir); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if first, _, _ := strings.Cut(buf.String(), "\n"); first != tc.header {
			t.Errorf("%s header:\n got %q\nwant %q", e.Name, first, tc.header)
		}
		if file, err := os.ReadFile(filepath.Join(dir, e.Name+".txt")); err != nil || !bytes.Equal(file, buf.Bytes()) {
			t.Errorf("%s.txt differs from the printed output (%v)", e.Name, err)
		}
	}
	var m StabilityMap
	if b, err := os.ReadFile(filepath.Join(dir, "staleness.json")); err != nil || json.Unmarshal(b, &m) != nil || len(m.Cells) == 0 {
		t.Errorf("staleness.json: %v, %d cells", err, len(m.Cells))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 1 {
		t.Errorf("JSON files %v, want only staleness.json", files)
	}
}
