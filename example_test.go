package hbspk_test

import (
	"fmt"
	"slices"
	"sort"

	"hbspk"
)

// ExampleRun builds a three-machine cluster and gathers every
// processor's bytes at the fastest machine under the pure cost model.
func ExampleRun() {
	root := hbspk.NewCluster("lan", []*hbspk.Machine{
		hbspk.NewLeaf("fast", hbspk.WithComm(1), hbspk.WithComp(1)),
		hbspk.NewLeaf("mid", hbspk.WithComm(1.2), hbspk.WithComp(1.5)),
		hbspk.NewLeaf("slow", hbspk.WithComm(1.5), hbspk.WithComp(2)),
	}, hbspk.WithSync(100))
	tree := hbspk.MustNew(root, 1).Normalize()

	var collected []int
	rep, err := hbspk.Run(tree, hbspk.PureModelFabric(), func(c hbspk.Ctx) error {
		out, err := hbspk.Gather(c, c.Tree().Root, 0, []byte{byte(c.Pid() + 10)})
		if err != nil {
			return err
		}
		if out != nil {
			for pid := range out {
				collected = append(collected, pid)
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	sort.Ints(collected)
	fmt.Println("pieces from pids:", collected)
	fmt.Println("supersteps:", rep.Supersteps())
	// Output:
	// pieces from pids: [0 1 2]
	// supersteps: 1
}

// ExamplePredictGather shows the analytic cost of a balanced gather on
// the paper's testbed: with balanced workloads it collapses to the
// §4.2 form, dominated by the root's receive side plus L.
func ExamplePredictGather() {
	tree := hbspk.UCFTestbed()
	dist := hbspk.BalancedDist(tree, 100000)
	b := hbspk.PredictGather(tree, tree.Pid(tree.FastestLeaf()), dist)
	fmt.Printf("steps: %d, total: %.0f\n", len(b.Steps), b.Total())
	// Output:
	// steps: 1, total: 111369
}

// ExampleTwoPhaseCrossoverSize reproduces the §4.4 analysis: below this
// problem size the one-phase broadcast wins, above it the two-phase.
func ExampleTwoPhaseCrossoverSize() {
	fmt.Printf("n* = %.0f bytes\n", hbspk.TwoPhaseCrossoverSize(hbspk.UCFTestbed()))
	// Output:
	// n* = 3704 bytes
}

// ExampleAllReduce sums one value per processor across the paper's
// Figure 1 machine, hierarchically.
func ExampleAllReduce() {
	tree := hbspk.Figure1Cluster()
	totals := make([]int64, tree.NProcs())
	_, err := hbspk.Run(tree, hbspk.PureModelFabric(), func(c hbspk.Ctx) error {
		out, err := hbspk.AllReduce(c, []int64{1}, hbspk.SumOp)
		if err != nil {
			return err
		}
		totals[c.Pid()] = out[0]
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("every processor holds:", totals[0])
	// Output:
	// every processor holds: 9
}

// ExampleRunChaos kills a processor mid-collective and drops 5% of the
// messages; the fault-tolerant all-reduce re-elects a live coordinator
// and every survivor ends with the fold over the survivor set.
func ExampleRunChaos() {
	tree := hbspk.UCFTestbed()
	// Kill p2 at its second superstep and drop 5% of messages.
	plan := &hbspk.ChaosPlan{
		Seed:    7,
		Crashes: []hbspk.Crash{{Pid: 2, AtStep: 1}},
		Drop:    0.05,
	}
	sums := make([]int64, tree.NProcs())
	_, err := hbspk.RunChaos(tree, hbspk.PVMFabric(), plan, func(c hbspk.Ctx) error {
		ft := hbspk.NewFT(c, c.Tree().Root)
		sum, err := ft.AllReduce([]int64{int64(c.Pid())}, hbspk.SumOp)
		if err != nil {
			return err
		}
		sums[c.Pid()] = sum[0]
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("sums by pid:", sums)
	// Output:
	// sums by pid: [43 43 0 43 43 43 43 43 43 43]
}

// ExamplePlannedBcast lets a Planner pick the broadcast variant for a
// 1 MB payload on the paper's testbed from the closed-form cost table.
func ExamplePlannedBcast() {
	tree := hbspk.UCFTestbed()
	p := hbspk.NewPlanner()
	rootPid := tree.Pid(tree.FastestLeaf())
	ok := make([]bool, tree.NProcs())
	_, err := hbspk.Run(tree, hbspk.PureModelFabric(), func(c hbspk.Ctx) error {
		var data []byte
		if c.Pid() == rootPid {
			data = make([]byte, 1<<20)
		}
		got, err := hbspk.PlannedBcast(c, p, 1<<20, data)
		ok[c.Pid()] = len(got) == 1<<20
		return err
	})
	if err != nil {
		panic(err)
	}
	for _, d := range p.Decisions() {
		fmt.Println(d.Family, "->", d.Variant)
	}
	fmt.Println("every processor holds 1 MB:", !slices.Contains(ok, false))
	// Output:
	// bcast -> BcastHierTwoPhase
	// every processor holds 1 MB: true
}
