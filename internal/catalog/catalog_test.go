package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// maxGap bounds each row's gap, |Virtual's total ÷ the row's Predict −
// 1|, over the grid. The exact rows hold 0 to float rounding; the others
// are pinned just above their measured worst cell, which the comment
// names with the gap's sign. These are the table's known errors (ROADMAP
// item 3): a bound may shrink, never grow.
var maxGap = map[string]float64{
	"Gather":            0,
	"Scatter":           0,
	"AllGather":         0,
	"TotalExchange":     0,
	"BcastOnePhase":     0,
	"BcastTwoPhase":     0,
	"BcastBinomial":     0,
	"BcastHier":         0,
	"BcastHierTwoPhase": 0,
	"GatherHier":        0.081, // +8.0 % at rand3x4/768
	"ScatterHier":       0.081, // +8.0 % at rand3x4/768
	"AllGatherHier":     0.088, // +8.8 % at rand3x4/768
	"Reduce":            0.025, // +2.5 % at grid/768
	"ReduceHier":        0.025, // +2.4 % at grid/768
	"AllReduce":         0.025, // +2.4 % at grid/768
	"Scan":              0.025, // +2.5 % at grid/768
	"ScanHier":          0.166, // −16.6 % at rand3x4/786432
	"ReduceScatter":     0.327, // +32.7 % at rand3x4/768
}

// gridTrees and gridSizes are TestPlannerPicksBestFixed's grid.
var gridTrees = []struct {
	name  string
	build func() *model.Tree
}{
	{"figure1", model.Figure1Cluster},
	{"ucf8", func() *model.Tree { return model.UCFTestbedN(8) }},
	{"rand3x4", func() *model.Tree { return model.RandomTree(rand.New(rand.NewSource(7)), 3, 4) }},
	{"grid", func() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }},
}

var gridSizes = []int{3 << 8, 3 << 12, 3 << 16, 3 << 18}

// runPure runs e on tr with the pure cost model and returns Virtual's
// total.
func runPure(t *testing.T, e Entry, tr *model.Tree, a Args) float64 {
	t.Helper()
	rep, err := hbsp.RunVirtual(tr, fabric.PureModel(), e.Program(tr, a))
	if err != nil {
		t.Fatalf("%s on %d procs, n=%d: %v", e.Name, tr.NProcs(), a.N, err)
	}
	return rep.Total
}

// TestEveryRowRunsWhatItPrices joins the two sides of the cost table:
// collective.RowCalls and plan.CostVariants name the same rows, every
// row is run by exactly one catalogue entry, and that entry's run on
// Virtual under the pure model costs what the row predicts, within the
// row's pinned gap, on every tree and size of the grid.
func TestEveryRowRunsWhatItPrices(t *testing.T) {
	rows := map[string]bool{}
	for _, v := range plan.CostVariants() {
		rows[v.Name] = true
		if collective.RowCalls[v.Name] == nil {
			t.Errorf("row %s has no collective.RowCalls call", v.Name)
		}
	}
	for name := range collective.RowCalls {
		if !rows[name] {
			t.Errorf("collective.RowCalls runs %q, which is no cost-table row", name)
		}
	}
	byRow := map[string][]string{}
	for _, e := range Entries() {
		if e.Variant == "" {
			continue
		}
		if _, ok := e.Row(); !ok {
			t.Errorf("entry %s runs %q, which is no cost-table row", e.Name, e.Variant)
		}
		byRow[e.Variant] = append(byRow[e.Variant], e.Name)
	}
	for _, v := range plan.CostVariants() {
		if names := byRow[v.Name]; len(names) != 1 {
			t.Errorf("row %s is run by %d entries %v, want exactly one", v.Name, len(names), names)
		}
		if _, ok := maxGap[v.Name]; !ok {
			t.Errorf("row %s has no pinned gap", v.Name)
		}
	}
	const rounding = 1e-9
	for _, e := range Entries() {
		v, ok := e.Row()
		if !ok {
			continue
		}
		bound := maxGap[v.Name]
		t.Run(e.Name, func(t *testing.T) {
			worst, at := 0.0, "every cell"
			for _, tc := range gridTrees {
				for _, n := range gridSizes {
					tr := tc.build()
					gap := runPure(t, e, tr, Args{N: n})/v.Predict(tr, n) - 1
					if math.Abs(gap) > bound+rounding {
						t.Errorf("%s/n%d: Virtual ÷ %s − 1 = %+.5f, beyond the row's ±%.3f",
							tc.name, n, v.Name, gap, bound)
					}
					if math.Abs(gap) > math.Abs(worst) {
						worst, at = gap, fmt.Sprintf("%s/%d", tc.name, n)
					}
				}
			}
			t.Logf("worst gap %+.5f at %s", worst, at)
		})
	}
}

// TestEveryUnpricedEntryRuns runs each entry that prices no row once on
// the flat testbed under the pure model.
func TestEveryUnpricedEntryRuns(t *testing.T) {
	for _, e := range Entries() {
		if e.Variant != "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			runPure(t, e, model.UCFTestbed(), Args{N: 4096, Rounds: 3, Planner: plan.New()})
		})
	}
}
