// Quickstart: build a small heterogeneous cluster, run the paper's
// gather collective under both root policies, and compare the simulated
// times with the analytic prediction.
package main

import (
	"fmt"
	"log"

	"hbspk"
)

func main() {
	// A five-workstation HBSP^1 machine: one fast SGI, two mid SUNs,
	// two old SPARCs. Slowdowns are relative to the fastest machine.
	root := hbspk.NewCluster("lab-lan", []*hbspk.Machine{
		hbspk.NewLeaf("sgi", hbspk.WithComm(1.0), hbspk.WithComp(1.0)),
		hbspk.NewLeaf("sun-a", hbspk.WithComm(1.1), hbspk.WithComp(1.4)),
		hbspk.NewLeaf("sun-b", hbspk.WithComm(1.1), hbspk.WithComp(1.5)),
		hbspk.NewLeaf("sparc-a", hbspk.WithComm(1.2), hbspk.WithComp(2.1)),
		hbspk.NewLeaf("sparc-b", hbspk.WithComm(1.25), hbspk.WithComp(2.3)),
	}, hbspk.WithSync(25000))
	// Normalize also derives the balanced-workload shares c_j from the
	// declared compute speeds.
	tree := hbspk.MustNew(root, 1).Normalize()
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)

	// Gather 500 KB at the fastest vs the slowest processor.
	const n = 500_000
	dist := hbspk.BalancedDist(tree, n)
	gatherAt := func(rootPid int) float64 {
		rep, err := hbspk.Run(tree, hbspk.PVMFabric(), func(c hbspk.Ctx) error {
			_, err := hbspk.Gather(c, c.Tree().Root, rootPid, make([]byte, dist[c.Pid()]))
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep.Total
	}
	tFast := gatherAt(tree.Pid(tree.FastestLeaf()))
	tSlow := gatherAt(tree.Pid(tree.SlowestLeaf()))
	fmt.Printf("\ngather of %d bytes, balanced workloads:\n", n)
	fmt.Printf("  root = fastest: %.0f time units\n", tFast)
	fmt.Printf("  root = slowest: %.0f time units\n", tSlow)
	fmt.Printf("  improvement factor T_s/T_f = %.3f\n", tSlow/tFast)

	// Compare with the pure-model analytic prediction.
	pred := hbspk.PredictGather(tree, tree.Pid(tree.FastestLeaf()), dist)
	fmt.Printf("\nanalytic prediction (pure model, no PVM overheads):\n%s", pred)
}
