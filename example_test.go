package asyncmg_test

import (
	"fmt"

	"asyncmg"
)

// Example builds a small 3-D Poisson problem and solves it with the
// classical multiplicative V(1,1)-cycle.
func Example() {
	a := asyncmg.Laplacian7pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		panic(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 1)
	_, hist := asyncmg.SolveSync(setup, asyncmg.Mult, b, 40)
	fmt.Println(hist[len(hist)-1] < 1e-8)
	// Output: true
}

// ExampleSolveAsync runs the asynchronous additive solver: goroutine teams
// per grid, no global synchronization.
func ExampleSolveAsync() {
	a := asyncmg.Laplacian27pt(8)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		panic(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 1)
	res, err := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
		Method:    asyncmg.Multadd,
		Write:     asyncmg.AtomicWrite,
		Res:       asyncmg.LocalRes,
		Criterion: asyncmg.Criterion1,
		Threads:   4,
		MaxCycles: 40,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.RelRes < 1e-4, res.Diverged)
	// Output: true false
}

// ExampleSimulateModel runs one semi-asynchronous model simulation
// (Equation 6 of the paper) and reports whether it converged as far as the
// synchronous method would.
func ExampleSimulateModel() {
	a := asyncmg.Laplacian27pt(6)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		panic(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 1)
	res, err := asyncmg.SimulateModel(setup, b, asyncmg.ModelConfig{
		Variant: asyncmg.SemiAsync,
		Method:  asyncmg.Multadd,
		Alpha:   0.5,
		Updates: 20,
		Seed:    7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.RelRes < 1e-2)
	// Output: true
}

// ExampleSolveCG demonstrates BPX as a PCG preconditioner.
func ExampleSolveCG() {
	a := asyncmg.Laplacian7pt(8)
	opt := asyncmg.DefaultAMGOptions()
	opt.AggressiveLevels = 0
	setup, err := asyncmg.NewSetup(a, opt, asyncmg.DefaultSmoother())
	if err != nil {
		panic(err)
	}
	b := asyncmg.RandomRHS(a.Rows, 1)
	cg := asyncmg.DefaultCGOptions()
	cg.M = asyncmg.NewMGPreconditioner(setup, asyncmg.BPX)
	res, err := asyncmg.SolveCG(a, b, cg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict)
	// Output: converged
}
