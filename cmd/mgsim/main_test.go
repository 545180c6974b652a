package main

import (
	"testing"

	"asyncmg/internal/engine"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("4, 8,12", false)
	if err != nil || len(got) != 3 || got[0] != 4 || got[2] != 12 {
		t.Errorf("parseSizes = %v, %v", got, err)
	}
	if _, err := parseSizes("4,x", false); err == nil {
		t.Error("bad size accepted")
	}
	def, err := parseSizes("", false)
	if err != nil || len(def) == 0 {
		t.Errorf("default sizes: %v, %v", def, err)
	}
	full, err := parseSizes("", true)
	if err != nil || full[0] != 40 || full[len(full)-1] != 80 {
		t.Errorf("full sizes: %v (paper range 40..80)", full)
	}
}

func TestParseMethods(t *testing.T) {
	both, err := parseMethods("both")
	if err != nil || len(both) != 2 {
		t.Errorf("both: %v, %v", both, err)
	}
	ma, err := parseMethods("multadd")
	if err != nil || len(ma) != 1 || ma[0] != engine.Multadd {
		t.Errorf("multadd: %v, %v", ma, err)
	}
	if _, err := parseMethods("nope"); err == nil {
		t.Error("unknown accepted")
	}
}
