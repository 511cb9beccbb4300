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
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
	"hbspk/internal/trace"
)

// pin is a row's known error (ROADMAP item 3). gap bounds |Virtual's
// total ÷ the row's Predict − 1| over the grid: the exact rows hold 0 to
// float rounding, the others are pinned just above their measured worst
// cell, which the comment names with the gap's sign. W and H name the
// per-step terms that carry the gap; every other term of a paired step
// matches to float rounding, and only a row that pins W does work after
// its last Sync. A bound may shrink, never grow.
type pin struct {
	gap  float64
	W, H bool
}

var maxGap = map[string]pin{
	"Gather":            {},
	"Scatter":           {},
	"AllGather":         {},
	"TotalExchange":     {},
	"BcastOnePhase":     {},
	"BcastTwoPhase":     {},
	"BcastBinomial":     {},
	"BcastHier":         {},
	"BcastHierTwoPhase": {},
	"GatherHier":        {gap: 0.081, H: true},          // +8.0 % at rand3x4/768
	"ScatterHier":       {gap: 0.081, H: true},          // +8.0 % at rand3x4/768
	"AllGatherHier":     {gap: 0.088, H: true},          // +8.8 % at rand3x4/768
	"Reduce":            {gap: 0.025, W: true, H: true}, // +2.5 % at grid/768
	"ReduceHier":        {gap: 0.025, W: true, H: true}, // +2.4 % at grid/768
	"AllReduce":         {gap: 0.025, W: true, H: true}, // +2.4 % at grid/768
	"Scan":              {gap: 0.025, W: true, H: true}, // +2.5 % at grid/768
	"ScanHier":          {gap: 0.166, W: true, H: true}, // −16.6 % at rand3x4/786432
	"ReduceScatter":     {gap: 0.327, W: true, H: true}, // +32.7 % at rand3x4/768
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

// runPure runs e on tr with the pure cost model.
func runPure(t *testing.T, e Entry, tr *model.Tree, a Args) *trace.Report {
	t.Helper()
	rep, err := hbsp.RunVirtual(tr, fabric.PureModel(), e.Program(tr, a))
	if err != nil {
		t.Fatalf("%s on %d procs, n=%d: %v", e.Name, tr.NProcs(), a.N, err)
	}
	return rep
}

// rounding is the float error an exact term or total may carry.
const rounding = 1e-9

// checkSteps requires every step of one cell's join to pair, and each
// paired step's W, H and L to match bar the terms the row's pin names.
func checkSteps(t *testing.T, cell string, p pin, j obsv.Joined) {
	t.Helper()
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= rounding*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, pr := range j.Pairs {
		if pr.Pred == nil || pr.Run == nil {
			t.Errorf("%s: %s step %d is on one side only (priced %v, run %v)",
				cell, pr.Scope, pr.Ordinal, pr.Pred != nil, pr.Run != nil)
			continue
		}
		for _, term := range []struct {
			name      string
			pinned    bool
			pred, run float64
		}{
			{"W", p.W, pr.Pred.Work, pr.Run.W},
			{"H", p.H, pr.Pred.H, pr.Run.H},
			{"L", false, pr.Pred.Sync, pr.Run.Sync},
		} {
			if !term.pinned && !near(term.pred, term.run) {
				t.Errorf("%s: %s step %d: %s is %v priced, %v run",
					cell, pr.Scope, pr.Ordinal, term.name, term.pred, term.run)
			}
		}
	}
	if !p.W && j.Tail > rounding*j.Run {
		t.Errorf("%s: %v of work after the last Sync, which no step prices", cell, j.Tail)
	}
}

// TestEveryRowRunsWhatItPrices joins the two sides of the cost table:
// collective.RowCalls and plan.CostVariants name the same rows, every
// row is run by exactly one catalogue entry, and on every tree and size
// of the grid that entry's run on Virtual under the pure model joins the
// row's closed form step by step (obsv.Join): every step pairs, each
// paired step's terms match bar the row's pinned ones, and the run's
// total is the row's prediction within the row's pinned gap.
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
	for _, e := range Entries() {
		v, ok := e.Row()
		if !ok {
			continue
		}
		p := maxGap[v.Name]
		t.Run(e.Name, func(t *testing.T) {
			worst, at := 0.0, "every cell"
			for _, tc := range gridTrees {
				for _, n := range gridSizes {
					tr := tc.build()
					cell := fmt.Sprintf("%s/%d", tc.name, n)
					j := obsv.Join(v.Cost(tr, n), runPure(t, e, tr, Args{N: n}))
					checkSteps(t, cell, p, j)
					gap := j.Run/j.Pred - 1
					if math.Abs(gap) > p.gap+rounding {
						t.Errorf("%s: Virtual ÷ %s − 1 = %+.5f, beyond the row's ±%.3f",
							cell, v.Name, gap, p.gap)
					}
					if math.Abs(gap) > math.Abs(worst) {
						worst, at = gap, cell
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
