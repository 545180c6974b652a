package solve

import (
	"math"
	"net/url"
	"testing"

	"asyncmg/internal/engine"
)

// FuzzParseSolveRequest is the decoder's no-panic contract: the /solve
// body is the service's untrusted-input surface, and whatever arrives,
// parsing must return a spec or an error — never panic, never produce a
// spec that violates the documented bounds.
func FuzzParseSolveRequest(f *testing.F) {
	f.Add([]byte(`{"problem":"7pt","size":8}`))
	f.Add([]byte(`{"problem":"27pt","size":6,"method":"mult","smoother":"l1-jacobi","omega":0.8}`))
	f.Add([]byte(`{"problem":"mfem-laplace","size":8,"mode":"async","threads":4,"cycles":12}`))
	f.Add([]byte(`{"problem":"7pt","size":4,"rhs":[1,2,3],"seed":9,"timeout_ms":100}`))
	f.Add([]byte(`{"problem":"7pt","size":1e9}`))
	f.Add([]byte(`{"size":-1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"problem":"7pt","size":8,"omega":"NaN"}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"mode":"async","damping":"auto","damp_rollback":true}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"mode":"async","damping":"fixed","damp_omega":0.5,"damp_min_omega":0.1}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"mode":"async","damping":"auto","damp_omega":9e307,"damp_staleness_ref":-4}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"solver":"pcg","tol":1e-9,"maxiter":200}`))
	f.Add([]byte(`{"problem":"conv-diff","size":8,"solver":"fgmres","restart":20,"tol":1e-8}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"solver":"pcg","method":"afacx"}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"solver":"fgmres","mode":"async"}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"solver":"cycle","tol":0.5}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"solver":"pcg","tol":-3e2,"restart":-1}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"mode":"dist","method":"bpx"}`))
	f.Add([]byte(`{"problem":"7pt","size":8,"mode":"dist","method":"afacx","cycles":5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := Parse(body)
		if err != nil {
			if sp != nil {
				t.Fatal("error with non-nil spec")
			}
			return
		}
		if err := sp.Async.Damping.Validate(); err != nil {
			t.Fatalf("validated spec has bad damping policy: %v", err)
		}
		if sp.Cycles < 1 || sp.Cycles > MaxCycles {
			t.Fatalf("validated spec has cycles %d", sp.Cycles)
		}
		if sp.Async.Threads < 1 || sp.Async.Threads > MaxThreads {
			t.Fatalf("validated spec has threads %d", sp.Async.Threads)
		}
		if sp.Problem != "" && (sp.Size < 2 || sp.Size > MaxSize) {
			t.Fatalf("validated spec has size %d", sp.Size)
		}
		switch sp.Mode {
		case ModeSync, ModeAsync, ModeDist:
		default:
			t.Fatalf("validated spec has mode %q", sp.Mode)
		}
		// The message-passing simulation runs the additive methods only;
		// anything else must be refused here, before a worker slot and a
		// hierarchy are spent on it.
		if sp.Mode == ModeDist && sp.Method != engine.Multadd && sp.Method != engine.AFACx {
			t.Fatalf("validated dist spec has method %v", sp.Method)
		}
		if sp.Timeout < 0 {
			t.Fatalf("validated spec has negative timeout %v", sp.Timeout)
		}
		switch sp.Solver {
		case SolverCycle:
			if sp.Tol != 0 || sp.MaxIter != 0 || sp.Restart != 0 {
				t.Fatalf("cycle spec carries krylov knobs: %+v", sp)
			}
		case SolverPCG, SolverFGMRES:
			if sp.Mode != ModeSync {
				t.Fatalf("krylov spec has mode %q", sp.Mode)
			}
			if !(sp.Tol > 0 && sp.Tol < 1) {
				t.Fatalf("krylov spec has tol %v", sp.Tol)
			}
			if sp.MaxIter < 1 || sp.MaxIter > MaxKrylovIter {
				t.Fatalf("krylov spec has maxiter %d", sp.MaxIter)
			}
			if sp.Solver == SolverFGMRES && (sp.Restart < 1 || sp.Restart > MaxRestart) {
				t.Fatalf("fgmres spec has restart %d", sp.Restart)
			}
		default:
			t.Fatalf("validated spec has solver %q", sp.Solver)
		}
	})
}

// FuzzSpecFromQuery fuzzes the upload endpoint's query-string decoder.
func FuzzSpecFromQuery(f *testing.F) {
	f.Add("method=mult&cycles=5&seed=2")
	f.Add("smoother=l1-jacobi&omega=0.7&mode=dist&timeout_ms=50")
	f.Add("omega=nan")
	f.Add("cycles=&threads=99999999999999999999")
	f.Add("return_x=maybe")
	f.Add("mode=async&damping=auto&damp_omega=0.8&damp_rollback=true")
	f.Add("damping=fixed&damp_omega=inf")
	f.Add("solver=pcg&tol=1e-9&maxiter=100")
	f.Add("solver=fgmres&restart=25&tol=0.5e-7")
	f.Add("solver=pcg&method=afacx")
	f.Add("solver=cycle&tol=nan&restart=1e99")
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return
		}
		sp, err := FromQuery(q)
		if err != nil {
			return
		}
		if sp == nil {
			t.Fatal("nil spec without error")
		}
		// An upload's operator comes from the body: the query can name
		// no generated problem and no right-hand side.
		if sp.Problem != "" || sp.Size != 0 || sp.RHS != nil {
			t.Fatalf("query spec carries JSON-only knobs: %+v", sp)
		}
		if sp.Mode == ModeDist && sp.Method != engine.Multadd && sp.Method != engine.AFACx {
			t.Fatalf("validated dist spec has method %v", sp.Method)
		}
	})
}

// FuzzKrylovRequest targets the solver-selection corner of the /solve
// decoder: any combination of solver/tol/maxiter/restart/method/mode
// either yields an error or a spec the Krylov layer will accept —
// positive in-range tol, bounded maxiter and restart, sync mode, and an
// SPD method whenever pcg was chosen.
func FuzzKrylovRequest(f *testing.F) {
	f.Add("pcg", "mult", "sync", 1e-9, 200, 0)
	f.Add("fgmres", "multadd", "sync", 1e-8, 500, 30)
	f.Add("fgmres", "afacx", "sync", 1e-6, 50, 5)
	f.Add("pcg", "afacx", "sync", 1e-8, 100, 0)
	f.Add("cycle", "", "", 0.0, 0, 0)
	f.Add("PCG", "bpx", "sync", 0.99, 10000, 0)
	f.Add("gmres", "mult", "dist", math.NaN(), -5, 1<<30)
	f.Fuzz(func(t *testing.T, solver, method, mode string, tol float64, maxiter, restart int) {
		req := &Spec{
			Problem: "7pt", Size: 6,
			Solver: solver, Method: method, Mode: mode,
			Tol: tol, MaxIter: maxiter, Restart: restart,
		}
		sp, err := req.Validate()
		if err != nil {
			if sp != nil {
				t.Fatal("error with non-nil spec")
			}
			return
		}
		switch sp.Solver {
		case SolverCycle:
		case SolverPCG:
			if sp.Method == engine.AFACx {
				t.Fatal("decoder accepted pcg with a non-SPD preconditioner")
			}
			fallthrough
		case SolverFGMRES:
			if sp.Mode != ModeSync || !(sp.Tol > 0 && sp.Tol < 1) || sp.MaxIter < 1 || sp.MaxIter > MaxKrylovIter {
				t.Fatalf("decoder accepted an unusable krylov spec: %+v", sp)
			}
		default:
			t.Fatalf("spec has solver %q", sp.Solver)
		}
	})
}

// FuzzDampingRequest targets the damping-policy corner of the /solve
// decoder: whatever the policy fields hold, parsing must never panic,
// and any accepted spec carries a policy async.Solve will accept
// (Validate passes, mode is async, method is additive) — the decoder is
// the only thing standing between wire input and the solver's own
// validation, and the two must agree.
func FuzzDampingRequest(f *testing.F) {
	f.Add("auto", 0.8, 0.1, int64(4), true)
	f.Add("fixed", 0.5, 0.0, int64(0), false)
	f.Add("off", 0.0, 0.0, int64(0), true)
	f.Add("AUTO", 1.0, 1.0, int64(1), false)
	f.Add("adaptive", -0.5, 2.0, int64(-9), true)
	f.Add("auto", math.NaN(), math.Inf(1), int64(1<<62), false)
	f.Fuzz(func(t *testing.T, name string, omega, minOmega float64, ref int64, rollback bool) {
		req := &Spec{
			Problem: "7pt", Size: 6, Mode: ModeAsync,
			Damping: name, DampOmega: omega, DampMinOmega: minOmega,
			DampStalenessRef: ref, DampRollback: rollback,
		}
		sp, err := req.Validate()
		if err != nil {
			if sp != nil {
				t.Fatal("error with non-nil spec")
			}
			return
		}
		if err := sp.Async.Damping.Validate(); err != nil {
			t.Fatalf("decoder accepted a policy the solver rejects: %v", err)
		}
		if sp.Mode != ModeAsync {
			t.Fatalf("damped spec has mode %q", sp.Mode)
		}
	})
}
