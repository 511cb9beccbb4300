// Command hbspk-calibrate simulates a BYTEmark-style measurement of a
// machine configuration — each processor's declared compute slowdown
// under seeded per-kernel noise; no kernel runs — and prints the
// resulting ranking and the balanced workload shares the measurement
// implies (§5.1: "The ranking of processors is determined by the
// BYTEmark benchmark"; "c_i is computed using the BYTEmark results").
//
// Usage:
//
//	hbspk-calibrate                      # the UCF testbed preset
//	hbspk-calibrate -machine figure1     # the Figure 1 HBSP^2 cluster
//	hbspk-calibrate -machine cluster.json
//	hbspk-calibrate -noise 0 -seed 7     # noiseless measurement
//	hbspk-calibrate -kernels             # also the per-kernel indices
package main

import (
	"flag"
	"fmt"
	"os"

	"hbspk/internal/bytemark"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

func main() {
	machine := flag.String("machine", "ucf", "preset (ucf, figure1, grid, chain) or JSON spec path")
	seed := flag.Int64("seed", 1, "measurement seed")
	noise := flag.Float64("noise", 0.08, "relative measurement noise amplitude")
	kernels := flag.Bool("kernels", false, "also print the per-kernel index table")
	flag.Parse()

	tr, err := model.LoadMachine(*machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbspk-calibrate: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(tr.String())

	ixs := bytemark.Suite{NoiseAmp: *noise, Seed: *seed}.Measure(tr)
	fmt.Println()
	fmt.Print(bytemark.Table(ixs).String())
	if *kernels {
		fmt.Println()
		fmt.Print(bytemark.KernelTable(ixs).String())
	}

	bytemark.ApplyShares(tr, ixs)
	tb := trace.NewTable("estimated balanced workload shares c_j", "machine", "c_j", "r_j", "r_j*c_j*p")
	p := float64(tr.NProcs())
	for _, l := range tr.RankedLeaves() {
		tb.AddF(l.Name, l.Share, l.CommSlowdown, l.Share*l.CommSlowdown*p)
	}
	fmt.Println()
	fmt.Print(tb.String())
}
