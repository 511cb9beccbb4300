package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupFloorS is the least worsening of setup_s that counts: the metric
// may worsen by its bound or by this many seconds, whichever is more. A
// set-up of 50 ms moves by 10 ms between two starts of one binary.
const setupFloorS = 0.050

// compareFiles compares two result files of all-workload runs, a the
// parent and b the change (or two runs of one commit), pair by pair:
// each end-to-end metric on each workload, gated or not, gets both medians, both
// quartile spreads over the repetitions, how much worse b is as a share
// of a's median, and a verdict against the metric's bound. A pair whose
// spread is wider than its bound is unresolved, not unchanged, unless
// every repetition of b reads better than every repetition of a. A
// metric that b lost, any rise of fail_ratio, and a b side that is not
// correct are worse whatever the numbers say. It returns an error when
// any pair is worse.
func compareFiles(out io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-15s %-14s %14s %8s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "a.median", "a.spread", "b.median", "b.spread", "b worse", "bound", "verdict")
	worse := 0
	for _, name := range workloadOrder {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a result file", name)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if ma.Median == 0 {
				return fmt.Errorf("%s on %s is zero or missing in %s", m.Name, name, pathA)
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			by := sign * (mb.Median - ma.Median) / ma.Median
			allowed := m.Bound
			if m.Name == "setup_s" && setupFloorS/ma.Median > allowed {
				allowed = setupFloorS / ma.Median
			}
			sa, sb := quartileSpread(ma.Values), quartileSpread(mb.Values)
			verdict := "ok"
			switch {
			case mb.Median == 0 || len(mb.Values) == 0:
				// A metric b lost must not read as one it improved.
				verdict = "worse"
			case (sa > allowed || sb > allowed) && !allBetter(mb.Values, ma.Values, sign):
				verdict = "unresolved"
			case by > allowed:
				verdict = "worse"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-15s %-14s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%% %6.0f%%  %s\n",
				name, m.Name, ma.Median, 100*sa, mb.Median, 100*sb, 100*by, 100*allowed, verdict)
		}
		verdict := "ok"
		if wb.FailRatio > wa.FailRatio || !wb.Correct || len(wb.Errors) > 0 {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(out, "%-15s %-14s %14.6g %8s %14.6g %8s %9s %7s  %s\n",
			name, "fail_ratio", wa.FailRatio, "", wb.FailRatio, "", "", "0", verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d pair(s) worse than their bound", worse)
	}
	return nil
}

// allBetter reports whether every value of b reads better than every
// value of a; sign is +1 when lower is better, -1 when higher is.
func allBetter(b, a []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
