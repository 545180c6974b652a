package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"asyncmg/internal/grid"
	"asyncmg/internal/op"
	"asyncmg/internal/vec"
)

// ---- sizes ----

// sizes fixes every workload's inputs and operation counts. The full tier is
// the benchmark; the smoke tier (n=8) only proves under `go test` that every
// workload runs and emits every metric. The counts are per run of runSeconds
// and scale with --seconds (see runCtx.count).
type sizes struct {
	syncN      int // lib-sync-csr 27pt grid length
	mix7ptN    int // lib-setup-mix 7pt grid length
	mixLapN    int // lib-setup-mix ball-mesh resolution
	mixElasN   int // lib-setup-mix beam cross-section
	asyncN     int // lib-async 7pt grid length
	pcgN       int // lib-pcg-mf stencil grid length
	serveSmall int // service keys: 7pt/27pt at these two grid lengths
	serveLarge int
	uploadN    int // serve-churn uploaded 7pt grid length
	kernelN    int // kernel and operator probes grid length
	triadBytes int // triad array size cap

	setups      int           // cold setups per library run (median reported)
	syncSetups  int           // the same on lib-sync-csr, where one takes over a second
	fleets      int           // fresh services warmed per service run (median reported)
	syncSolves  int           // lib-sync-csr solves
	mixReps     int           // lib-setup-mix repetitions
	asyncSolves int           // lib-async solves (every third has a Sync twin)
	pcgSolves   int           // lib-pcg-mf solves
	probeBudget time.Duration // time budget of one layer-probe measurement
}

var fullSizes = sizes{
	syncN: 32, mix7ptN: 36, mixLapN: 24, mixElasN: 8, asyncN: 32, pcgN: 64,
	serveSmall: 12, serveLarge: 16, uploadN: 16, kernelN: 64, triadBytes: 128 << 20,
	setups: 5, syncSetups: 3, fleets: 11, syncSolves: 12, mixReps: 4, asyncSolves: 18, pcgSolves: 7,
	probeBudget: 150 * time.Millisecond,
}

var smokeSizes = sizes{
	syncN: 8, mix7ptN: 8, mixLapN: 6, mixElasN: 2, asyncN: 8, pcgN: 8,
	serveSmall: 6, serveLarge: 8, uploadN: 6, kernelN: 8, triadBytes: 1 << 20,
	setups: 1, syncSetups: 1, fleets: 1, syncSolves: 2, mixReps: 2, asyncSolves: 4, pcgSolves: 2,
	probeBudget: 5 * time.Millisecond,
}

// ---- run context and results ----

// runCtx is the state of one workload run in this process.
type runCtx struct {
	seed    int64
	seconds float64
	sz      sizes
	tr      *tracer // nil when untraced
	clients int     // closed-loop clients C = min(nproc, 4)
	notes   []string
}

func (rc *runCtx) notef(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

func newRunCtx(seed int64, seconds float64, sz sizes) *runCtx {
	return &runCtx{seed: seed, seconds: seconds, sz: sz, clients: min(runtime.NumCPU(), 4)}
}

// count scales an operation count stated for a run of runSeconds to this
// run's --seconds. The library workloads do a fixed number of operations, so
// that iters and hier_mb repeat exactly for a seed; the window sets that
// number rather than cutting the run off.
func (rc *runCtx) count(perRun int) int {
	return max(2, int(math.Round(float64(perRun)*rc.seconds/runSeconds)))
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// outcome is what one workload run produced: the end-to-end metrics, the
// per-layer metrics its layers yield, and the failure count.
type outcome struct {
	e2e       metrics
	layer     metrics
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layer: metrics{}} }

// fail counts one failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
	}
}

// ---- statistics ----

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in (0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// hiPercentile is the highest percentile with at least ten samples beyond
// it, kept between the median and p90: with few samples it is the median
// itself, and the caller prints which percentile it got and from how many
// samples. The cap is there because on a shared 2-vCPU machine the tail past
// p90 is what the hypervisor did to the run, which no bound of 25 % can hold;
// the service's p99 is reported unbounded as serve.req_p99_ms.
func hiPercentile(xs []float64) (value, p float64) {
	n := len(xs)
	p = 0.5
	if n > 20 {
		p = min(float64(n-10)/float64(n), 0.9)
	}
	return percentile(xs, p), p
}

// ---- input generator ----

// generator derives every input from the workload seed: right-hand sides,
// request seeds and order, upload-matrix perturbations. The program under
// test never sees the seed, only what was generated from it.
type generator struct{ seed int64 }

// rng returns an independent stream for (purpose, index).
func (g generator) rng(purpose string, index int) *rand.Rand {
	h := uint64(g.seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// rhs is a right-hand side with entries uniform in [-1, 1] (the paper's
// protocol).
func (g generator) rhs(n int, purpose string, index int) []float64 {
	return grid.RandomRHS(n, g.rng(purpose, index).Int63())
}

// ---- correctness oracle ----

// trueRelRes recomputes ‖b − A x‖₂ / ‖b‖₂ from the operator alone, serially;
// the bench never trusts a relres or a converged flag the program reports.
func trueRelRes(a op.Operator, b, x []float64) float64 {
	if len(x) != len(b) || vec.HasNonFinite(x) {
		return math.Inf(1)
	}
	r := make([]float64, len(b))
	a.ResidualRange(r, b, x, 0, len(b))
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	return vec.Norm2(r) / nb
}

// digits is −log10 of a relative residual.
func digits(relres float64) float64 { return -math.Log10(relres) }

// ---- timing helpers ----

// cpuMark is a reading of the machine's CPU accounting in /proc/stat, in
// ticks of 1/100 s: the time the CPUs together spent running something, and
// per CPU the time the hypervisor kept it from running while it had work
// ("steal").
type cpuMark struct {
	at    time.Time
	busy  int64
	steal []int64 // per CPU
}

func markCPU() cpuMark {
	m := cpuMark{at: time.Now()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var v [8]int64 // user nice system idle iowait irq softirq steal
		for i := range v {
			v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
		}
		if f[0] == "cpu" {
			m.busy = v[0] + v[1] + v[2] + v[5] + v[6]
		} else {
			m.steal = append(m.steal, v[7])
		}
	}
	return m
}

// since returns, for the interval since the mark, the share of the CPU time
// the machine asked for that it was given, busy/(busy+steal), and the share
// of the interval in which no CPU was withheld, the product over the CPUs of
// 1 - steal/elapsed (taking the CPUs to be withheld independently). Both are
// 1 where the kernel reports no steal, and 1 for an interval too short for
// counters that tick in hundredths of a second to say anything.
func (m cpuMark) since() (granted, allRunning float64) {
	now := markCPU()
	ticks := 100 * now.at.Sub(m.at).Seconds()
	if ticks < 20 || len(now.steal) != len(m.steal) {
		return 1, 1
	}
	allRunning, stolen := 1.0, int64(0)
	for i := range m.steal {
		d := now.steal[i] - m.steal[i]
		stolen += d
		allRunning *= 1 - min(float64(d)/ticks, 0.95)
	}
	if busy := now.busy - m.busy; busy+stolen > 0 {
		granted = float64(busy) / float64(busy+stolen)
	} else {
		granted = 1
	}
	return granted, allRunning
}

// stopwatch times one library operation of a quarter of a second or more
// for an end-to-end metric. The machine this benchmark was built on is a
// 2-vCPU virtual machine whose hypervisor withholds anything from 0 to 70 %
// of the CPU time the guest asks for, in bursts that last minutes; plain
// wall time there moved by 26 to 40 % between ten runs of one commit
// (out/spread.txt), and the same solve took 0.8 to 2.5 s. So an end-to-end
// time is the wall time less the part in which a CPU was withheld: the time
// the work would have taken on the same machine left alone. A library
// operation is one thread or a fork-join of one thread per CPU, which stands
// still whenever any CPU is withheld, so its wall time is multiplied by
// allRunning; the service workloads' requests share the CPUs as divisible
// work, so theirs are multiplied by granted over their window (serve.go).
// On a machine that reports no steal both factors are exactly 1. What the
// correction cannot see stays in the numbers: caches gone cold while a CPU
// was away, waits that are not for a CPU. Per-layer numbers (spans,
// SetupStats, probes) are plain wall times.
type stopwatch struct{ cpu cpuMark }

func startWatch() stopwatch { return stopwatch{markCPU()} }

func (s stopwatch) seconds() float64 {
	wall := time.Since(s.cpu.at).Seconds()
	_, allRunning := s.cpu.since()
	return wall * allRunning
}

// timeIt runs f repeatedly for about budget (at least 3 times) and returns
// the median seconds per call.
func timeIt(budget time.Duration, f func()) float64 {
	f() // warm caches and pools
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		f()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// timePair times f and g alternately for about budget each and returns the
// median seconds per call of each. Ratios of two kernels are taken this way,
// so that both see the same machine conditions.
func timePair(budget time.Duration, f, g func()) (tf, tg float64) {
	f()
	g()
	var fs, gs []float64
	start := time.Now()
	for len(fs) < 3 || time.Since(start) < 2*budget {
		t0 := time.Now()
		f()
		t1 := time.Now()
		g()
		fs, gs = append(fs, t1.Sub(t0).Seconds()), append(gs, time.Since(t1).Seconds())
	}
	return median(fs), median(gs)
}

// mallocs counts the heap allocations of one call of f: the least of n
// calls, because the counter is process-wide.
func mallocs(n int, f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < n; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs))
	}
	return least
}

// ---- machine fingerprint ----

// fingerprint identifies the machine and build a result was taken on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LLCBytes: llcBytes(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	// run.sh builds without a VCS stamp (a driver's checkout has no .git);
	// ask git, where there is one.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && fp.Commit == "unknown" {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// llcBytes reads the size of the highest-level cache of cpu0 from sysfs; 0
// when it cannot be read.
func llcBytes() int64 {
	best, bestLevel := int64(0), 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// peakRSSMB is VmHWM of this process in MB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
