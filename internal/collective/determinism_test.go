package collective_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hbspk/internal/catalog"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
)

// Virtual is a sequential simulation, so a run's report and event stream
// are a function of (machine, program, fabric seed, chaos plan) — on the
// multi-level trees where sibling clusters step side by side, not only on
// a flat one. Every catalogue entry whose supersteps span sibling scopes
// is run twenty times per machine and mode, and every run must reproduce
// the first byte for byte.

// reproNames gives four lanes the subtest name of the program they ran
// before the test ran the catalogue, so that their test IDs hold. The
// planned round is the auto entry: its Pick events come from the
// programs themselves.
var reproNames = map[string]string{
	"bcast-hier":    "bcast-hier/one-phase-top",
	"bcast-hier-2p": "bcast-hier/two-phase-top",
	"alltoall-hier": "total-exchange-hier",
	"auto":          "planned-round",
}

// reproEntries are the entries whose rows exploit the hierarchy, the
// hierarchical exchange and one planner-dispatched round.
func reproEntries() []catalog.Entry {
	var es []catalog.Entry
	for _, e := range catalog.Entries() {
		if v, ok := e.Row(); ok && v.Hier || e.Name == "alltoall-hier" || e.Name == "auto" {
			es = append(es, e)
		}
	}
	return es
}

// multiLevelTrees are the machines of the determinism tests: the CLI's
// grid, the pathological chain, and three seeded random trees of height
// two or more.
func multiLevelTrees() []namedTree {
	trees := []namedTree{
		{"grid", model.WideAreaGrid(3, 4, 12, 25000, 250000)},
		{"chain", model.DeepChain(4)},
	}
	for seed := int64(1); len(trees) < 5; seed++ {
		tr := model.RandomTree(rand.New(rand.NewSource(seed)), 3, 4)
		if tr.K() >= 2 && tr.NProcs() >= 5 {
			trees = append(trees, namedTree{fmt.Sprintf("random%d", seed), tr})
		}
	}
	return trees
}

type namedTree struct {
	name string
	tree *model.Tree
}

// runOutcome is everything one run shows the outside.
type runOutcome struct {
	report, events []byte
	total          float64
	err            string
}

func virtualOutcome(t *testing.T, tr *model.Tree, cfg fabric.Config, chaos *fabric.ChaosPlan,
	prog func(*plan.Planner) hbsp.Program) runOutcome {
	t.Helper()
	rec := obsv.New(obsv.Config{Capacity: 1 << 10})
	eng := hbsp.NewVirtual(tr, fabric.New(tr, cfg))
	eng.Obsv, eng.Chaos = rec, chaos
	rep, err := eng.Run(prog(plan.New()))
	if lost := rec.Lost(); lost != 0 {
		t.Fatalf("recorder lost %d events: raise its capacity", lost)
	}
	var out runOutcome
	var rb, eb bytes.Buffer
	if werr := rep.WriteJSON(&rb); werr != nil {
		t.Fatal(werr)
	}
	if werr := obsv.WriteJSONL(&eb, rec.Events()); werr != nil {
		t.Fatal(werr)
	}
	out.report, out.events, out.total = rb.Bytes(), eb.Bytes(), rep.Total
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func TestHierCollectivesReproduceOnMultiLevelTrees(t *testing.T) {
	const runs, n = 20, 96
	noisy := fabric.PVM()
	noisy.Noise, noisy.Seed = 0.2, 3
	for _, nt := range multiLevelTrees() {
		treeName, tr := nt.name, nt.tree
		p := tr.NProcs()
		modes := []struct {
			name    string
			cfg     fabric.Config
			chaos   *fabric.ChaosPlan
			mustRun bool // a fault-free mode: the collective must succeed
		}{
			{name: "pure", cfg: fabric.PureModel(), mustRun: true},
			{name: "noisy", cfg: noisy, mustRun: true},
			{name: "chaos", cfg: fabric.PVM(), chaos: &fabric.ChaosPlan{
				Seed: 11, Delay: 0.3, DelaySteps: 1,
				Crashes: []fabric.Crash{{Pid: p - 1, AtStep: 1}},
			}},
		}
		for _, mode := range modes {
			for _, e := range reproEntries() {
				name := e.Name
				if old, ok := reproNames[name]; ok {
					name = old
				}
				prog := func(pl *plan.Planner) hbsp.Program {
					return e.Program(tr, catalog.Args{N: n, Rounds: 1, Planner: pl})
				}
				t.Run(treeName+"/"+mode.name+"/"+name, func(t *testing.T) {
					first := virtualOutcome(t, tr, mode.cfg, mode.chaos, prog)
					if mode.mustRun && first.err != "" {
						t.Fatalf("run failed: %s", first.err)
					}
					for i := 1; i < runs; i++ {
						got := virtualOutcome(t, tr, mode.cfg, mode.chaos, prog)
						switch {
						case got.total != first.total:
							t.Fatalf("run %d: Total %v, first run %v", i, got.total, first.total)
						case got.err != first.err:
							t.Fatalf("run %d: error %q, first run %q", i, got.err, first.err)
						case !bytes.Equal(got.report, first.report):
							t.Fatalf("run %d: report differs from the first run's", i)
						case !bytes.Equal(got.events, first.events):
							t.Fatalf("run %d: event stream differs from the first run's", i)
						}
					}
				})
			}
		}
	}
}
