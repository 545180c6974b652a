package solve

import (
	"context"
	"flag"
	"io"
	"math"
	"net/url"
	"reflect"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/krylov"
	"asyncmg/internal/smoother"
)

// TestQueryAndFlagsParseAlike: every knob that is both a query parameter
// and a flag accepts and rejects the same strings on both entry points,
// with strconv's base-10 rules (no 0x, no underscores), and lands on the
// same plan.
func TestQueryAndFlagsParseAlike(t *testing.T) {
	values := []string{"1", "+2", "0x10", "1_000", "0.5", "-3", "1e-9", "nan", "inf", "true", "T", "0", "mult", "async", "auto", "maybe"}
	var names []string
	for _, k := range (&Spec{}).knobs() {
		if k.in == inQuery|inFlags {
			names = append(names, k.name)
		}
	}
	if len(names) != 14 {
		t.Fatalf("%d knobs are both query parameters and flags, want 14", len(names))
	}
	for _, name := range names {
		for _, v := range values {
			qp, qerr := FromQuery(url.Values{name: {v}})
			var s Spec
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			s.Bind(fs)
			var fp *Plan
			ferr := fs.Parse([]string{"-" + name + "=" + v})
			if ferr == nil {
				fp, ferr = s.Validate()
			}
			if (qerr == nil) != (ferr == nil) {
				t.Errorf("%s=%s: query err %v, flag err %v", name, v, qerr, ferr)
				continue
			}
			if qerr == nil && !reflect.DeepEqual(qp, fp) {
				t.Errorf("%s=%s: query plan %+v, flag plan %+v", name, v, qp, fp)
			}
		}
	}
}

// TestFromQueryRules pins the query rules kept from the service's first
// decoder: empty values are unset, the first of repeated values wins,
// unknown parameters and the JSON-only knobs are ignored, and an upload's
// ω defaults to 0.9.
func TestFromQueryRules(t *testing.T) {
	q, _ := url.ParseQuery("cycles=&method=mult&method=bpx&problem=27pt&size=9&rhs=1&bogus=1&threads=%2B4")
	p, err := FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles != 30 || p.Method != engine.Mult || p.Problem != "" || p.Size != 0 || p.RHS != nil || p.Async.Threads != 4 {
		t.Errorf("query resolved to %+v", p)
	}
	if p.Smoother.Omega != 0.9 {
		t.Errorf("upload omega %v, want 0.9", p.Smoother.Omega)
	}
	for _, bad := range []string{"cycles=0x10", "seed=1.5", "return_x=maybe", "timeout_ms=-1", "omega=2.5", "mode=dist&method=mult"} {
		q, _ := url.ParseQuery(bad)
		if _, err := FromQuery(q); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// TestRunDispatch: Run hands each plan to the solver its mode and outer
// solver name, with the plan's knobs, and reports what that solver did.
func TestRunDispatch(t *testing.T) {
	a := grid.Laplacian7pt(6)
	e, err := engine.New(a, amg.DefaultOptions(), smoother.Config{Kind: smoother.WJacobi, Omega: 0.9, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := grid.RandomRHS(a.Rows, 3)
	run := func(body string) Outcome {
		t.Helper()
		p, err := Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(context.Background(), e, p, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return out
	}

	out := run(`{"problem":"7pt","size":6,"method":"mult","cycles":7}`)
	_, hist := e.Solve(engine.Mult, b, 7)
	if !reflect.DeepEqual(out.History, hist) || out.Cycles != 7 || out.RelRes != hist[7] || out.Async != nil {
		t.Errorf("sync: %+v, want history %v", out, hist)
	}

	out = run(`{"problem":"7pt","size":6,"solver":"pcg","tol":1e-9}`)
	m := krylov.NewMGPreconditioner(e, engine.Multadd)
	opt := krylov.DefaultOptions()
	opt.Tol, opt.MaxIter, opt.M = 1e-9, DefaultKrylovMaxIter, m
	want, err := krylov.PCG(e.Ops[0], b, opt)
	m.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.History, want.History) || out.Iterations != want.Iterations || !out.Converged || out.Cycles != 0 {
		t.Errorf("pcg: %+v, want %d iterations", out, want.Iterations)
	}

	out = run(`{"problem":"7pt","size":6,"solver":"fgmres","method":"afacx","restart":5}`)
	if !out.Converged || out.Iterations == 0 {
		t.Errorf("fgmres: %+v", out)
	}

	// The async and dist outcomes depend on the schedule; what no
	// schedule changes is checked: who ran, how many corrections, and a
	// residual that was computed.
	out = run(`{"problem":"7pt","size":6,"mode":"async","threads":4,"cycles":20}`)
	if out.Async == nil || out.Cycles != 20 || out.History != nil || out.RelRes != out.Async.RelRes || math.IsNaN(out.RelRes) {
		t.Errorf("async: %+v", out)
	}
	for k, c := range out.Async.Corrections {
		if c != 20 {
			t.Errorf("async: grid %d ran %d corrections, want 20", k, c)
		}
	}

	out = run(`{"problem":"7pt","size":6,"mode":"dist","method":"afacx","cycles":20}`)
	if out.Async != nil || out.Cycles != 20 || out.History != nil || math.IsNaN(out.RelRes) || len(out.X) != a.Rows {
		t.Errorf("dist: %+v", out)
	}
}
