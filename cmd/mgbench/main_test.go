package main

import (
	"reflect"
	"testing"

	"asyncmg/internal/harness"
)

func TestParseInts(t *testing.T) {
	var l intList
	if err := l.Set("1, 2,3"); err != nil || !reflect.DeepEqual([]int(l), []int{1, 2, 3}) {
		t.Errorf("intList.Set = %v, %v", l, err)
	}
	if err := l.Set("1,x"); err == nil {
		t.Error("bad int accepted")
	}
}

// TestApplyOverrides checks that the flags land in the registry's override
// set unchanged, that unset flags override nothing, and that the registry's
// rule (an override the entry does not read, or a list where it takes one
// value, is an error) reaches the command line.
func TestApplyOverrides(t *testing.T) {
	c, exps, err := parseArgs([]string{"-exp", "table1", "-problem", "7pt", "-size", "8",
		"-runs", "7", "-threads", "9", "-tau", "1e-5", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	want := harness.Overrides{Problem: "7pt", Sizes: []int{8}, Runs: 7, Threads: []int{9}, Tau: 1e-5, Seed: 3}
	if !reflect.DeepEqual(c.ov, want) || len(exps) != 1 || exps[0].Name != "table1" {
		t.Errorf("overrides %+v for %v, want %+v", c.ov, exps, want)
	}
	if c, _, err := parseArgs([]string{"-exp", "fig4"}); err != nil || !reflect.DeepEqual(c.ov, harness.Overrides{}) {
		t.Errorf("no flags must override nothing: %+v, %v", c.ov, err)
	}
	if _, exps, err := parseArgs([]string{"-exp", "all", "-runs", "1"}); err != nil || len(exps) != len(harness.Experiments()) {
		t.Errorf("-exp all -runs 1: %d entries, %v", len(exps), err)
	}
	for _, args := range [][]string{
		{},                                   // no -exp
		{"-exp", "fig3"},                     // unknown entry
		{"-exp", "fig5", "-problem", "27pt"}, // fig5 is the FEM Laplace set
		{"-exp", "table1", "-size", "8,12"},  // table1 takes one size
		{"-exp", "fault", "-runs", "2"},      // the fault sweep has no runs
		{"-exp", "fig1", "-threads", "x"},    // bad list
		{"-exp", "fig1", "-fig", "2"},        // a deleted flag
		{"-exp", "fig1", "extra"},            // stray argument
	} {
		if _, _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
