// Distributed-memory asynchronous multigrid: the paper's conclusion argues
// that the global-res / residual-based approach "is the most natural way to
// implement a distributed asynchronous multigrid method". This example runs
// the message-passing simulation: one process per grid, residual snapshots
// flowing through newest-wins mailboxes, corrections applied by an owner
// process with the residual-based update r ← r − A·c. It then shows the
// effect of interconnect latency and of unbalanced correction counts (the
// conclusion's caveat), and finally the fault-injection transport: the same
// solve surviving message loss, a worker crash, and a dead coarse grid.
package main

import (
	"fmt"
	"log"
	"time"

	"asyncmg"
)

func main() {
	a := asyncmg.Laplacian27pt(12)
	setup, err := asyncmg.NewSetup(a, asyncmg.DefaultAMGOptions(), asyncmg.DefaultSmoother())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: %d rows; hierarchy %v\n", a.Rows, setup.H.GridSizes())
	b := asyncmg.RandomRHS(a.Rows, 9)

	run := func(label string, cfg asyncmg.DistConfig) {
		res, err := asyncmg.SolveDistributed(setup, b, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s rel res %.3e  broadcasts %4d  stale drops %3d  %v\n",
			label, res.RelRes, res.ResidualBroadcasts, res.StaleDrops, res.Elapsed.Round(time.Millisecond))
	}

	fmt.Println("\n30 corrections per grid process:")
	run("no latency", asyncmg.DistConfig{Method: asyncmg.Multadd, MaxCorrections: 30})
	run("0.5 ms per message", asyncmg.DistConfig{
		Method: asyncmg.Multadd, MaxCorrections: 30,
		Fault: asyncmg.FaultConfig{BaseDelay: 500 * time.Microsecond},
	})
	run("sparse broadcasts (every 4)", asyncmg.DistConfig{
		Method: asyncmg.Multadd, MaxCorrections: 30, BroadcastEvery: 4,
	})
	run("unbalanced (unbounded lead)", asyncmg.DistConfig{
		Method: asyncmg.Multadd, MaxCorrections: 30, MaxLead: -1,
	})

	fmt.Println("\nThe balanced runs converge despite stale reads; the unbounded-lead run")
	fmt.Println("degenerates to 'all coarse corrections first, then all fine corrections'")
	fmt.Println("— the unbalanced regime in which the paper notes convergence is lost.")

	fmt.Println("\nSame solve on a faulty interconnect (seeded, deterministic):")
	runFaulty := func(label string, fc asyncmg.FaultConfig) {
		cfg := asyncmg.DistConfig{
			Method: asyncmg.Multadd, MaxCorrections: 30,
			WatchdogTimeout: 5 * time.Millisecond,
			Fault:           fc,
		}
		res, err := asyncmg.SolveDistributed(setup, b, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s rel res %.3e  drops %3d  crashes %d  respawns %d  retired %v\n",
			label, res.RelRes, res.Drops, res.Crashes, res.Respawns, res.RetiredGrids)
	}
	runFaulty("20% message loss", asyncmg.FaultConfig{Seed: 1, DropRate: 0.2})
	runFaulty("worker 1 crashes", asyncmg.FaultConfig{Seed: 1, CrashAt: map[int]int{1: 5}})
	runFaulty("coarsest grid dead", asyncmg.FaultConfig{
		Seed: 1, DeadGrids: []int{setup.NumLevels() - 1},
	})

	fmt.Println("\nThe watchdog rebroadcasts past drops, respawns the crashed worker, and")
	fmt.Println("retires the dead grid so the survivors still finish their corrections.")
}
