package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hbspk/internal/experiments"
)

// figureIDs are the experiments of one pass, in run order; the first
// four have golden files for the Quick configuration.
var figureIDs = []string{"fig3a", "fig3b", "fig4a", "fig4b", "xphase", "penalty"}

// runFigure regenerates one figure and returns its table as CSV.
func runFigure(id string, cfg experiments.Config) (string, error) {
	runner, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("experiment %q is not registered", id)
	}
	res, err := runner.Run(cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return res.Table.CSV(), nil
}

// runFigures is the virtual-engine workload: what a user of hbspk-bench
// waits for. Set-up regenerates the four golden figures with the Quick
// configuration and compares them byte for byte with the repository's
// testdata, which is also the warm-up. One timed operation is a pass
// over six figures at the paper's full sweep; the Virtual engine is
// bit-deterministic, so every pass must reproduce the first pass's
// tables exactly. The experiments take their own fixed seed: the golden
// files exist for that seed only, so the benchmark's seed is not used.
func runFigures(r *rep) error {
	for _, id := range figureIDs[:4] {
		got, err := runFigure(id, experiments.Quick())
		if err != nil {
			return err
		}
		golden := filepath.Join(r.Root, "internal", "experiments", "testdata", id+"_quick.csv")
		want, err := os.ReadFile(golden)
		if err != nil {
			return err
		}
		if got != string(want) {
			return fmt.Errorf("%s with the Quick configuration differs from %s", id, golden)
		}
	}

	if r.Trace {
		r.tr = newTracer(1)
	}
	pt := r.tr.pid(0)
	first := map[string]string{}
	r.startTimed()
	for passes := 0; passes < r.Ops; passes++ {
		began := time.Now()
		pt.beginOp(passes)
		for _, id := range figureIDs {
			pt.begin("experiments." + id)
			got, err := runFigure(id, experiments.Default())
			pt.end()
			if err != nil {
				pt.end()
				r.res.Ops = passes
				return err
			}
			if passes == 0 {
				first[id] = got
			} else if got != first[id] {
				r.fail(passes, "%s differs from the first pass", id)
			}
		}
		pt.end()
		r.opDone(float64(time.Since(began)) / 1e3)
	}
	r.stopTimed(r.Ops)

	if r.tr != nil {
		for _, id := range figureIDs {
			r.res.Layer["experiments."+id+"_ms"] = median(r.tr.durations("experiments."+id, 0)) / 1e3
		}
	}
	return nil
}
