package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"asyncmg/internal/amg"
	"asyncmg/internal/cluster"
	"asyncmg/internal/op"
	"asyncmg/internal/serve"
)

func TestParseFlags(t *testing.T) {
	f32 := amg.DefaultOptions()
	f32.CoarsePrecision = op.CoarseFloat32
	sparsified := amg.DefaultOptions()
	sparsified.Sparsify = true
	both := f32
	both.Sparsify = true

	// The values serve.Config documents as its defaults, spelled out: the
	// flags must not drift from the library.
	defCfg := serve.Config{CacheSize: 8, MaxQueue: 64, Workers: 0, MaxTimeout: 60 * time.Second}
	defMode := mode{addr: "localhost:8080", replicas: 2}

	for _, tc := range []struct {
		name    string
		args    string
		cfg     func(*serve.Config)
		mode    func(*mode)
		wantAMG *amg.Options
		wantErr string
	}{
		{name: "defaults"},
		{name: "node knobs", args: "-addr :9 -cache 3 -queue 5 -workers 2 -max-timeout 5s -par-workers 6 -matrix-free",
			cfg: func(c *serve.Config) {
				*c = serve.Config{CacheSize: 3, MaxQueue: 5, Workers: 2, MaxTimeout: 5 * time.Second, MatrixFree: true}
			},
			mode: func(m *mode) { m.addr, m.parWorkers = ":9", 6 }},
		{name: "f32 coarse", args: "-f32-coarse", wantAMG: &f32},
		{name: "sparsify", args: "-sparsify", wantAMG: &sparsified},
		{name: "f32 + sparsify defaults", args: "-f32-coarse -sparsify", wantAMG: &both},
		{name: "cluster", args: "-cluster -peers a:1,,b:2 -replicas 3",
			mode: func(m *mode) {
				m.cluster, m.replicas = true, 3
				m.peers = []cluster.Node{{Addr: "a:1"}, {Addr: "b:2"}}
			}},
		{name: "cluster without peers", args: "-cluster", wantErr: "-peers"},
		{name: "cluster with empty peers", args: "-cluster -peers ,", wantErr: "-peers"},
		{name: "not a duration", args: "-max-timeout soon", wantErr: "max-timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, m, err := parseFlags(strings.Fields(tc.args))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantCfg, wantMode := defCfg, defMode
			if tc.cfg != nil {
				tc.cfg(&wantCfg)
			}
			if tc.mode != nil {
				tc.mode(&wantMode)
			}
			if cfg.Observer == nil {
				t.Error("no observer: /metrics would be empty")
			}
			if !reflect.DeepEqual(cfg.AMG, tc.wantAMG) {
				t.Errorf("AMG = %+v, want %+v", cfg.AMG, tc.wantAMG)
			}
			cfg.Observer, cfg.AMG = nil, nil
			if !reflect.DeepEqual(cfg, wantCfg) {
				t.Errorf("config = %+v, want %+v", cfg, wantCfg)
			}
			if !reflect.DeepEqual(m, wantMode) {
				t.Errorf("mode = %+v, want %+v", m, wantMode)
			}
		})
	}
}

// TestLoadGeneratorFlagsAreGone: the load generators and their knobs left
// with the legacy benchmark pipeline; bench/ drives the service now. The
// request-coalescing knobs left with the coalescing, and the sparsify
// threshold and compensation knobs left when -sparsify became one switch.
func TestLoadGeneratorFlagsAreGone(t *testing.T) {
	for _, name := range []string{
		"loadgen", "cluster-loadgen", "out", "problem", "size", "cycles", "repeats",
		"batch", "cluster-nodes", "cluster-conc", "cluster-reqs", "seed",
		"batch-window", "max-batch", "sparsify-theta", "sparsify-mode",
	} {
		if _, _, err := parseFlags([]string{"-" + name + "=1"}); err == nil ||
			!strings.Contains(err.Error(), "not defined") {
			t.Errorf("-%s: err = %v, want flag not defined", name, err)
		}
	}
}
