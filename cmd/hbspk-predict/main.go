// Command hbspk-predict prints analytic HBSP^k cost predictions (§3.4,
// §4) for a machine and collective operation across a problem-size
// sweep, plus the Table 1 notation with concrete values.
//
// Usage:
//
//	hbspk-predict -describe
//	hbspk-predict -collective gather -n 100000,1000000
//	hbspk-predict -machine figure1 -collective bcast2 -balanced
//	hbspk-predict -machine cluster.json -collective gather-hier
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/trace"
	"hbspk/internal/workload"
)

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return workload.PaperSizes(), nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	machine := flag.String("machine", "ucf", "preset (ucf, figure1, grid, chain) or JSON spec path")
	coll := flag.String("collective", "gather", "gather, gather-hier, scatter, bcast1, bcast2, bcast-hier, allgather, reduce, reduce-hier, scan, alltoall")
	sizes := flag.String("n", "", "comma-separated byte sizes (default: the paper's 100KB..1000KB)")
	balanced := flag.Bool("balanced", true, "balanced (c_j) distribution instead of equal")
	describe := flag.Bool("describe", false, "print Table 1 with the machine's values and exit")
	breakdown := flag.Bool("breakdown", false, "print the per-superstep breakdown of the largest size")
	opCost := flag.Float64("opcost", cost.OpCost, "per-byte combining cost for reduce/scan (the default is the library operators' 0.05 per 8-byte element)")
	flag.Parse()

	tr, err := model.LoadMachine(*machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbspk-predict: %v\n", err)
		os.Exit(1)
	}
	if *describe {
		fmt.Print(tr.String())
		fmt.Println()
		fmt.Print(cost.RenderTable1(tr))
		return
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbspk-predict: %v\n", err)
		os.Exit(1)
	}

	root := tr.Pid(tr.FastestLeaf())
	predict := func(n int) cost.Breakdown {
		var d cost.Dist
		if *balanced {
			d = cost.BalancedDist(tr, n)
		} else {
			d = cost.EqualDist(tr, n)
		}
		switch *coll {
		case "gather":
			return cost.GatherFlat(tr, root, d)
		case "gather-hier":
			return cost.GatherHier(tr, d)
		case "scatter":
			return cost.ScatterFlat(tr, root, d)
		case "bcast1":
			return cost.BcastOnePhaseFlat(tr, root, n)
		case "bcast2":
			return cost.BcastTwoPhaseFlat(tr, root, d)
		case "bcast-hier":
			return cost.BcastHier(tr, n, false)
		case "allgather":
			return cost.AllGatherFlat(tr, d)
		case "reduce":
			return cost.ReduceFlat(tr, root, d, *opCost)
		case "reduce-hier":
			return cost.ReduceHier(tr, d, *opCost)
		case "scan":
			return cost.ScanFlat(tr, root, d, *opCost)
		case "alltoall":
			return cost.TotalExchangeFlat(tr, d)
		default:
			fmt.Fprintf(os.Stderr, "hbspk-predict: unknown collective %q\n", *coll)
			os.Exit(2)
			return cost.Breakdown{}
		}
	}

	tb := trace.NewTable(fmt.Sprintf("%s on %s (g=%g)", *coll, *machine, tr.G),
		"n(bytes)", "steps", "predicted T")
	for _, n := range ns {
		b := predict(n)
		tb.AddF(n, len(b.Steps), b.Total())
	}
	fmt.Print(tb.String())
	if *breakdown && len(ns) > 0 {
		fmt.Println()
		fmt.Print(predict(ns[len(ns)-1]).String())
	}
}
