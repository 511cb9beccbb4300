// Command hbspk-bench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	hbspk-bench                 # run every experiment, print tables
//	hbspk-bench -fig 3a         # one experiment (-h lists the ids)
//	hbspk-bench -csv            # CSV instead of aligned tables
//	hbspk-bench -noise 0.15     # non-dedicated-cluster noise
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hbspk/internal/experiments"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/trace"
)

// fail prints the error — naming the failing processor and superstep
// when the error carries them — and exits non-zero, so a partial run
// never passes for a complete table.
func fail(code int, context string, err error) {
	var pf *hbsp.ErrPeerFailed
	switch {
	case errors.As(err, &pf):
		fmt.Fprintf(os.Stderr, "hbspk-bench: %s: processor p%d failed at superstep %d (%s): %v\n",
			context, pf.Pid, pf.Step, pf.Cause, err)
	case context != "":
		fmt.Fprintf(os.Stderr, "hbspk-bench: %s: %v\n", context, err)
	default:
		fmt.Fprintf(os.Stderr, "hbspk-bench: %v\n", err)
	}
	os.Exit(code)
}

func main() {
	var all []string
	for _, r := range experiments.All() {
		all = append(all, r.ID)
	}
	fig := flag.String("fig", "all", "experiment id: all, "+strings.Join(all, ", ")+" (3a for fig3a, and so on)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	plot := flag.Bool("plot", false, "also render each figure's series as an ASCII chart")
	out := flag.String("out", "", "also write each experiment's CSV into this directory")
	noise := flag.Float64("noise", 0, "relative step-time noise amplitude (non-dedicated cluster)")
	reps := flag.Int("reps", 0, "replicate each figure this many times under -noise and report mean ± stddev")
	seed := flag.Int64("seed", 1, "seed for the draw of c_j estimation error (as the paper's BYTEmark ranking gives) and for noise")
	pure := flag.Bool("pure", false, "charge the pure cost model (no PVM pack/unpack overheads)")
	flag.Parse()

	cfg := experiments.Default()
	cfg.Seed = *seed
	if *pure {
		cfg.Fabric = fabric.PureModel()
	}
	if *noise > 0 {
		cfg.Fabric.Noise = *noise
		cfg.Fabric.Seed = *seed
	}

	ids := all
	if *fig != "all" {
		id := *fig
		if !strings.HasPrefix(id, "fig") && (strings.HasPrefix(id, "3") || strings.HasPrefix(id, "4")) {
			id = "fig" + id
		}
		ids = []string{id}
	}

	for _, id := range ids {
		r, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "hbspk-bench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		var res *experiments.Result
		var err error
		if *reps > 1 {
			res, err = experiments.Replicate(r, cfg, *reps, *noise)
		} else {
			res, err = r.Run(cfg)
		}
		if err != nil {
			fail(1, id, err)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fail(1, "", err)
			}
			path := filepath.Join(*out, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.Table.CSV()), 0o644); err != nil {
				fail(1, "", err)
			}
		}
		fmt.Printf("# %s\n# paper: %s\n", res.Title, res.PaperClaim)
		if *csv {
			fmt.Print(res.Table.CSV())
		} else {
			fmt.Print(res.Table.String())
		}
		if *plot && len(res.Series) > 0 {
			p := trace.NewPlot(res.Title, "problem size (bytes)", "value")
			nonEmpty := false
			for _, s := range res.Series {
				var xs, ys []float64
				for _, pt := range s.Points {
					xs = append(xs, pt.X)
					ys = append(ys, pt.Y)
				}
				if len(xs) > 0 {
					p.Add(s.Name, xs, ys)
					nonEmpty = true
				}
			}
			if nonEmpty {
				fmt.Println()
				fmt.Print(p.Render(90, 18))
			}
		}
		fmt.Println()
	}
}
