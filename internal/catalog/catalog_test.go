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

// gridTrees and gridSizes are TestPlannerPicksBestFixed's grid, and one
// size more, 7777, which no processor count of the grid divides.
var gridTrees = []struct {
	name  string
	build func() *model.Tree
}{
	{"figure1", model.Figure1Cluster},
	{"ucf8", func() *model.Tree { return model.UCFTestbedN(8) }},
	{"rand3x4", func() *model.Tree { return model.RandomTree(rand.New(rand.NewSource(7)), 3, 4) }},
	{"grid", func() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }},
}

var gridSizes = []int{3 << 8, 3 << 12, 3 << 16, 3 << 18, 7777}

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

// checkJoin requires every step of one cell's join to pair, and each
// paired step's W, H and L, the work after the last Sync and the total
// to match the closed form's.
func checkJoin(t *testing.T, cell string, j obsv.Joined) {
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
			pred, run float64
		}{
			{"W", pr.Pred.Work, pr.Run.W},
			{"H", pr.Pred.H, pr.Run.H},
			{"L", pr.Pred.Sync, pr.Run.Sync},
		} {
			if !near(term.pred, term.run) {
				t.Errorf("%s: %s step %d: %s is %v priced, %v run",
					cell, pr.Scope, pr.Ordinal, term.name, term.pred, term.run)
			}
		}
	}
	// The run's tail is a difference of clock readings: it carries the
	// rounding of the total it was taken from.
	if math.Abs(j.Tail-j.PredTail) > rounding*j.Run {
		t.Errorf("%s: %v of work after the last Sync priced, %v run", cell, j.PredTail, j.Tail)
	}
	if !near(j.Pred, j.Run) {
		t.Errorf("%s: total %v priced, %v run", cell, j.Pred, j.Run)
	}
}

// TestEveryRowRunsWhatItPrices joins the two sides of the cost table:
// collective.RowCalls and plan.CostVariants name the same rows, every
// row is run by exactly one catalogue entry, and on every tree and size
// of the grid that entry's run on Virtual under the pure model equals
// the row's closed form step by step (obsv.Join): every step pairs, and
// each paired step's terms, the work after the last Sync and the total
// match to float rounding.
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
	}
	for _, e := range Entries() {
		v, ok := e.Row()
		if !ok {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			for _, tc := range gridTrees {
				for _, n := range gridSizes {
					tr := tc.build()
					cell := fmt.Sprintf("%s/%d", tc.name, n)
					checkJoin(t, cell, obsv.Join(v.Cost(tr, n), runPure(t, e, tr, Args{N: n})))
				}
			}
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
