// Multi-material cantilever beam: assembles 3-D linear elasticity with
// three material segments (the paper's "MFEM Elasticity" test family, the
// hardest case in Table I) and compares the four smoothers of the paper on
// asynchronous Multadd — including the global-res variant, which the paper
// shows diverging on this problem.
package main

import (
	"fmt"
	"log"

	"asyncmg"
)

func main() {
	mesh := asyncmg.BeamMesh(4)
	prob, err := asyncmg.AssembleElasticity(mesh, asyncmg.DefaultBeamMaterials())
	if err != nil {
		log.Fatal(err)
	}
	a := prob.A
	fmt.Printf("elasticity beam: %d DOFs, %d nonzeros, 3 materials\n", a.Rows, a.NNZ())

	b := asyncmg.RandomRHS(a.Rows, 3)
	const cycles = 80

	fmt.Println("\nasync Multadd (local-res, lock-write) by smoother:")
	for _, kind := range []asyncmg.SmootherKind{
		asyncmg.WJacobi, asyncmg.L1Jacobi, asyncmg.HybridJGS, asyncmg.AsyncGS,
	} {
		// Each smoother needs its own setup: Multadd's smoothed
		// interpolants depend on the smoother's iteration matrix. The
		// unknown approach (NumFunctions = 3) keeps the x/y/z displacement
		// components from mixing in the AMG setup.
		amgOpt := asyncmg.DefaultAMGOptions()
		amgOpt.AggressiveLevels = 0
		amgOpt.NumFunctions = 3
		smo := asyncmg.SmootherConfig{Kind: kind, Omega: 0.5, Blocks: 1}
		setup, err := asyncmg.NewSetup(a, amgOpt, smo)
		if err != nil {
			log.Fatal(err)
		}
		res, err := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
			Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: asyncmg.LocalRes,
			Criterion: asyncmg.Criterion2, Threads: 8, MaxCycles: cycles,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12v rel res %.3e in %v (%v)\n", kind, res.RelRes, res.Elapsed, res.Verdict)
	}

	// The paper's Table I shows global-res diverging on elasticity for
	// every smoother: reproduce that contrast with ω-Jacobi.
	fmt.Println("\nglobal-res vs local-res (ω-Jacobi):")
	amgOpt := asyncmg.DefaultAMGOptions()
	amgOpt.AggressiveLevels = 0
	amgOpt.NumFunctions = 3
	setup, err := asyncmg.NewSetup(a, amgOpt,
		asyncmg.SmootherConfig{Kind: asyncmg.WJacobi, Omega: 0.5, Blocks: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, rm := range []asyncmg.ResMode{asyncmg.LocalRes, asyncmg.GlobalRes} {
		res, err := asyncmg.SolveAsync(setup, b, asyncmg.AsyncConfig{
			Method: asyncmg.Multadd, Write: asyncmg.LockWrite, Res: rm,
			Criterion: asyncmg.Criterion1, Threads: 8, MaxCycles: cycles,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12v rel res %.3e (%v)\n", rm, res.RelRes, res.Verdict)
	}
}
