// Setup-phase benchmarks: wall-clock AMG setup (strength, coarsening,
// interpolation, Pᵀ transpose, Galerkin RAP, coarse factor) for the
// paper's four test
// matrices, serial versus the sharded kernels. These are the benchmarks
// behind BENCH_setup.json; regenerate it with scripts/bench_setup.sh.
//
// The serial/parallel split forces the worker pool explicitly rather than
// trusting GOMAXPROCS, so the pair is meaningful even on a one-core CI
// runner (there the two should track each other — the sharded path's
// overhead is the quantity under test).
package asyncmg_test

import (
	"fmt"
	"testing"

	"asyncmg"
)

// setupBenchCases mirrors harness.AllProblems with CI-sized meshes: large
// enough that every kernel crosses the sharding threshold, small enough to
// keep the CI runs in seconds. The two n=32 stencil rows have eight times
// the fine rows of their n=16 rows; benchguard bounds their cost per fine
// row against that of n=16 (2x on 7pt, 4x on 27pt), which is what catches a
// setup stage that grows faster than the matrix.
var setupBenchCases = []struct {
	name    string
	problem string
	size    int
	agg     int // aggressive-coarsening levels, as in the paper's setup
	funcs   int // NumFunctions (3 for vector elasticity)
}{
	{"7pt", "7pt", 16, 1, 0},
	{"27pt", "27pt", 16, 1, 0},
	{"7pt-n32", "7pt", 32, 1, 0},
	{"27pt-n32", "27pt", 32, 1, 0},
	{"FEMLaplace", "mfem-laplace", 16, 1, 0},
	{"Elasticity", "mfem-elasticity", 5, 0, 3},
}

func benchmarkSetup(b *testing.B, problem string, size, agg, funcs, workers int) {
	a, err := asyncmg.BuildProblem(problem, size)
	if err != nil {
		b.Fatal(err)
	}
	opt := asyncmg.DefaultAMGOptions()
	opt.AggressiveLevels = agg
	opt.NumFunctions = funcs
	prevThreshold := asyncmg.ParallelKernelThreshold()
	asyncmg.SetParallelKernels(workers, 1)
	defer asyncmg.SetParallelKernels(0, prevThreshold)

	var st *asyncmg.SetupStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s, err := asyncmg.BuildHierarchyWithStats(a, opt)
		if err != nil {
			b.Fatal(err)
		}
		st = s
	}
	b.StopTimer()
	if st != nil {
		b.ReportMetric(float64(st.Levels), "levels")
		b.ReportMetric(float64(st.Transpose.Nanoseconds()), "transpose_ns")
		b.ReportMetric(float64(st.RAP.Nanoseconds()), "rap_ns")
	}
}

func BenchmarkSetup(b *testing.B) {
	for _, tc := range setupBenchCases {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 8}} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, mode.name), func(b *testing.B) {
				benchmarkSetup(b, tc.problem, tc.size, tc.agg, tc.funcs, mode.workers)
			})
		}
	}
}
