// Command hbspk-predict prints analytic HBSP^k cost predictions (§3.4,
// §4) for a machine and collective operation across a problem-size
// sweep, plus the Table 1 notation with concrete values. A collective
// is a catalogue entry that runs a cost-table row, priced by that row,
// so the price is the planner's and the one hbspk-sim attributes.
//
// Usage:
//
//	hbspk-predict -describe
//	hbspk-predict -collective gather -n 100000,1000000
//	hbspk-predict -machine figure1 -collective bcast2 -breakdown
//	hbspk-predict -machine cluster.json -collective gather-hier
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hbspk/internal/catalog"
	"hbspk/internal/cost"
	"hbspk/internal/experiments"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return experiments.PaperSizes(), nil
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
	coll := flag.String("collective", "gather", catalog.Names(true))
	sizes := flag.String("n", "", "comma-separated byte sizes (default: the paper's 100KB..1000KB)")
	describe := flag.Bool("describe", false, "print Table 1 with the machine's values and exit")
	breakdown := flag.Bool("breakdown", false, "print the per-superstep breakdown of the largest size")
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

	entry, err := catalog.Lookup(*coll)
	row, ok := entry.Row()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "hbspk-predict: no closed form for collective %q (want one of: %s)\n", *coll, catalog.Names(true))
		os.Exit(2)
	}

	tb := trace.NewTable(fmt.Sprintf("%s on %s (g=%g)", *coll, *machine, tr.G),
		"n(bytes)", "steps", "predicted T")
	for _, n := range ns {
		b := row.Cost(tr, n)
		tb.AddF(n, len(b.Steps), b.Total())
	}
	fmt.Print(tb.String())
	if *breakdown && len(ns) > 0 {
		fmt.Println()
		fmt.Print(row.Cost(tr, ns[len(ns)-1]).String())
	}
}
