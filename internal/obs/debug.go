package obs

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/trace"
)

// The observer a command builds records up to cmdGrids grids, more than
// the deepest hierarchy any command builds (out-of-range grid indices are
// dropped, so the exposition simply carries a few zero rows), and keeps
// the last cmdTraceEvents correction events.
const (
	cmdGrids       = 32
	cmdTraceEvents = 4096
)

// Flags are the observability outputs every command binds: -metrics-out,
// -pprof and -trace.
type Flags struct {
	MetricsOut string
	PprofAddr  string
	TraceOut   string
}

// FlagSet is the method of *flag.FlagSet that Bind calls. obs does not
// import flag or log: a package obs imports is linked ahead of it, which
// would move every solver package linked after obs to a new code
// alignment (see EXPERIMENTS.md, "Code alignment").
type FlagSet interface {
	StringVar(p *string, name, value, usage string)
}

// Bind registers the three flags on fs.
func (f *Flags) Bind(fs FlagSet) {
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write solver metrics (per-grid relaxation counts, staleness histogram, pool gauges, fault counters) to this file in exposition format")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.TraceOut, "trace", "", "write a runtime execution trace to this file (view with go tool trace)")
}

// Start starts what f asks for and reports the debug server's address
// through logf. It returns the observer the run reports to (nil unless
// -metrics-out or -pprof is set) and a finish function that stops the
// trace and writes the metrics file; a command calls finish once, on its
// successful exit paths.
func (f Flags) Start(logf func(format string, v ...any)) (*Observer, func() error, error) {
	var o *Observer
	if f.MetricsOut != "" || f.PprofAddr != "" {
		o = New(cmdGrids).WithTrace(cmdTraceEvents)
	}
	if f.PprofAddr != "" {
		addr, err := serveDebug(f.PprofAddr, o)
		if err != nil {
			return nil, nil, err
		}
		logf("serving metrics and pprof on http://%s", addr)
	}
	stopTrace := func() error { return nil }
	if f.TraceOut != "" {
		tf, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: trace file: %w", err)
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			return nil, nil, fmt.Errorf("obs: trace start: %w", err)
		}
		stopTrace = func() error {
			trace.Stop()
			return tf.Close()
		}
	}
	return o, func() error {
		if err := stopTrace(); err != nil {
			return err
		}
		return WriteMetricsFile(f.MetricsOut, o)
	}, nil
}

// serveDebug starts an HTTP server on addr exposing the observer's
// metrics at /metrics (exposition format) and the standard pprof profile
// endpoints under /debug/pprof/. It returns the bound address (useful
// with a ":0" addr) after the listener is live; the server itself runs on
// a background goroutine for the life of the process. obs may be nil
// (profiling endpoints only).
func serveDebug(addr string, o *Observer) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := o.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug listener: %w", err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// WriteMetricsFile writes the observer's exposition text to path
// (truncating). A nil observer or empty path is a no-op.
func WriteMetricsFile(path string, o *Observer) error {
	if o == nil || path == "" {
		return nil
	}
	var b bytes.Buffer
	if err := o.WriteText(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
