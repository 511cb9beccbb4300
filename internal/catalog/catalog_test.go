package catalog

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
	"hbspk/internal/testutil"
	"hbspk/internal/trace"
)

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
// match to float rounding. A flat rooted row's call is its
// collective.RootedCalls form at the fastest leaf, so that form at any
// root runs the row's program.
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
			for _, tc := range testutil.GridTrees {
				for _, n := range testutil.GridSizes {
					tr := tc.Build()
					cell := fmt.Sprintf("%s/%d", tc.Name, n)
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

// TestFaultTolerantEntriesSurviveACrash runs each fault-tolerant entry,
// and ft-bcast also rooted off the fastest leaf, on the flat testbed
// with a member crashing inside the call: the fastest leaf, which
// coordinates, or another, at the first or the second Sync of the call,
// and for ft-allreduce also in the broadcast that follows its fold. The
// survivors complete, so every
// survivor's result must pass the check. A survivor that drops a live
// member's piece, or is off by one, must still fail it.
func TestFaultTolerantEntriesSurviveACrash(t *testing.T) {
	tr := model.UCFTestbed()
	// A broadcast's source that dies before anyone holds its data loses
	// it (collective.ErrLost), so the victims are other pids.
	root, source, other := collective.FastestPid(tr), (collective.FastestPid(tr)+3)%tr.NProcs(), (collective.FastestPid(tr)+6)%tr.NProcs()
	var entries []Entry
	for _, e := range Entries() {
		if e.ft {
			entries = append(entries, e)
			if at, ok := e.At(source); ok {
				entries = append(entries, at)
			}
		}
	}
	// wrong spoils a survivor's result: the last live member's piece
	// goes, or a vector's first element is off.
	wrong := func(e Entry) Entry {
		last := func(c hbsp.Ctx) int { return slices.Max(collective.NewFT(c, c.Tree().Root).Live()) }
		switch f := e.call.(type) {
		case collective.GatherCall:
			e.call = collective.GatherCall(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
				out, err := f(c, b)
				delete(out, last(c))
				return out, err
			})
		case collective.BcastCall:
			e.call = collective.BcastCall(func(c hbsp.Ctx, d []byte) ([]byte, error) {
				out, err := f(c, d)
				if c.Pid() == last(c) {
					out = out[1:]
				}
				return out, err
			})
		case collective.VectorCall:
			e.call = collective.VectorCall(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
				out, err := f(c, v, op)
				if out != nil {
					out[0]++
				}
				return out, err
			})
		}
		return e
	}
	for _, e := range entries {
		crashes := []fabric.Crash{{Pid: root, AtStep: 1}, {Pid: other, AtStep: 0}, {Pid: other, AtStep: 1}}
		if e.Family == "allreduce" { // in the broadcast that follows the fold
			crashes = append(crashes, fabric.Crash{Pid: other, AtStep: 3})
		}
		for _, crash := range crashes {
			t.Run(fmt.Sprintf("%s/%d@%d", e.Name, crash.Pid, crash.AtStep), func(t *testing.T) {
				run := func(e Entry) error {
					var seen atomic.Bool
					prog := e.Program(tr, Args{N: 4096})
					eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
					eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{crash}}
					_, err := eng.Run(func(c hbsp.Ctx) error {
						err := prog(c)
						if slices.Contains(c.Failed(), crash.Pid) {
							seen.Store(true)
						}
						return err
					})
					if !seen.Load() {
						t.Fatalf("no survivor saw pid %d fail", crash.Pid)
					}
					return err
				}
				if err := run(e); err != nil {
					t.Errorf("the survivors' results fail the check: %v", err)
				}
				if err := run(wrong(e)); err == nil || !strings.Contains(err.Error(), "catalog: "+e.Name+": pid ") {
					t.Errorf("a spoiled result: error %v, want one naming the entry and a pid", err)
				}
			})
		}
	}
}

// TestEncodeWritesFullWidthFields holds Save's encoding of a map result
// to telling apart results that differ only in a pid of 256 or more or in
// a piece of 64 KiB or more.
func TestEncodeWritesFullWidthFields(t *testing.T) {
	long := bytes.Repeat([]byte{7}, 65533)
	for _, pair := range [][2]map[int][]byte{
		{{0: append([]byte{9, 1, 0xFD, 0xFF}, long...)}, {0: {9}, 1: long}},
		{{256: {1}}, {0: {1}}},
	} {
		if bytes.Equal(encode(pair[0]), encode(pair[1])) {
			t.Errorf("results with pids %v and %v encode alike", keys(pair[0]), keys(pair[1]))
		}
	}
}

// TestChecksCatchWrongResults feeds the builder, for each family and so
// each input shape, a call that is wrong in one way — a piece missing, a
// byte flipped, a vector element off, the result at the wrong pid — and
// requires the program to fail naming the entry and the pid, while the
// row's own call passes.
func TestChecksCatchWrongResults(t *testing.T) {
	tr := model.Figure1Cluster()
	root := collective.FastestPid(tr)
	other := (root + 1) % tr.NProcs()
	row := func(name string) any { return collective.RowCalls[name] }
	flip := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0xFF
		return b
	}
	bcastHier := row("BcastHier").(collective.BcastCall)
	scatterHier := row("ScatterHier").(collective.ScatterCall)
	gatherHier := row("GatherHier").(collective.GatherCall)
	allGather := row("AllGather").(collective.GatherCall)
	exchange := row("TotalExchange").(collective.ExchangeCall)
	vector := func(name string, at int) collective.VectorCall {
		call := row(name).(collective.VectorCall)
		return func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			out, err := call(c, v, op)
			if c.Pid() == at {
				out[len(out)-1]++
			}
			return out, err
		}
	}
	for _, tc := range []struct {
		family, row, fault string
		wrong              any
		pid                int // the pid the error names; -1 for either end of a move
	}{
		{"bcast", "BcastHier", "byte flipped", collective.BcastCall(func(c hbsp.Ctx, d []byte) ([]byte, error) {
			out, err := bcastHier(c, d)
			if c.Pid() == other {
				out = flip(out)
			}
			return out, err
		}), other},
		{"scatter", "ScatterHier", "byte flipped", collective.ScatterCall(func(c hbsp.Ctx, ps map[int][]byte) ([]byte, error) {
			out, err := scatterHier(c, ps)
			if c.Pid() == other {
				out = flip(out)
			}
			return out, err
		}), other},
		{"gather", "GatherHier", "piece missing", collective.GatherCall(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
			out, err := gatherHier(c, b)
			delete(out, other)
			return out, err
		}), root},
		{"gather", "Gather", "wrong pid", collective.RootedCalls["Gather"](func(*model.Tree) int { return other }), -1},
		{"allgather", "AllGather", "byte flipped", collective.GatherCall(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
			out, err := allGather(c, b)
			if c.Pid() == other {
				out[root] = flip(out[root])
			}
			return out, err
		}), other},
		{"alltoall", "TotalExchange", "piece missing", collective.ExchangeCall(func(c hbsp.Ctx, o map[int][]byte) (map[int][]byte, error) {
			out, err := exchange(c, o)
			if c.Pid() == other {
				delete(out, root)
			}
			return out, err
		}), other},
		{"reduce", "ReduceHier", "element off", vector("ReduceHier", root), root},
		{"reduce", "Reduce", "wrong pid", collective.VectorCall(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			return collective.Reduce(c, c.Tree().Root, other, v, op)
		}), -1},
		{"allreduce", "AllReduce", "element off", vector("AllReduce", other), other},
		{"reduce-scatter", "ReduceScatter", "element off", vector("ReduceScatter", other), other},
		{"scan", "ScanHier", "element off", vector("ScanHier", other), other},
	} {
		t.Run(tc.row+"/"+tc.fault, func(t *testing.T) {
			run := func(e Entry) error {
				_, err := hbsp.RunVirtual(tr, fabric.PureModel(), e.Program(tr, Args{N: 4096}))
				return err
			}
			right := Entry{Name: "right", Family: tc.family, Variant: tc.row, root: collective.FastestPid, call: row(tc.row)}
			if err := run(right); err != nil {
				t.Fatalf("the row's own call fails: %v", err)
			}
			wrong := right
			wrong.Name, wrong.call = "wrong", tc.wrong
			err := run(wrong)
			want := "wrong: pid "
			if tc.pid >= 0 {
				want += fmt.Sprint(tc.pid)
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("a call with a %s: error %v, want one naming %q", tc.fault, err, want)
			}
		})
	}
}
