package main

import (
	"testing"

	"asyncmg/internal/engine"
	"asyncmg/internal/smoother"
)

func TestParseMethod(t *testing.T) {
	cases := map[string]engine.Method{
		"mult": engine.Mult, "MULT": engine.Mult,
		"multadd": engine.Multadd,
		"afacx":   engine.AFACx,
		"bpx":     engine.BPX,
	}
	for in, want := range cases {
		got, err := parseMethod(in)
		if err != nil || got != want {
			t.Errorf("parseMethod(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseMethod("nope"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestParseSmoother(t *testing.T) {
	cases := map[string]smoother.Kind{
		"w-jacobi": smoother.WJacobi, "jacobi": smoother.WJacobi,
		"l1-jacobi": smoother.L1Jacobi, "l1": smoother.L1Jacobi,
		"hybrid-jgs": smoother.HybridJGS, "jgs": smoother.HybridJGS,
		"async-gs": smoother.AsyncGS, "gs": smoother.AsyncGS,
		"l1-hybrid-jgs": smoother.L1HybridJGS,
	}
	for in, want := range cases {
		got, err := parseSmoother(in)
		if err != nil || got != want {
			t.Errorf("parseSmoother(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSmoother("nope"); err == nil {
		t.Error("unknown smoother accepted")
	}
}
