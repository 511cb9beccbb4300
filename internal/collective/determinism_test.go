package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
)

// Virtual is a sequential simulation, so a run's report and event stream
// are a function of (machine, program, fabric seed, chaos plan) — on the
// multi-level trees where sibling clusters step side by side, not only on
// a flat one. Every hierarchical collective is run twenty times per
// machine and mode, and every run must reproduce the first byte for byte.

// hierCases are the collectives whose supersteps span sibling scopes,
// plus one planner-dispatched round (its Pick events come from the
// programs themselves).
func hierCases() []struct {
	name string
	prog func(pl *plan.Planner) hbsp.Program
} {
	plain := func(p hbsp.Program) func(*plan.Planner) hbsp.Program {
		return func(*plan.Planner) hbsp.Program { return p }
	}
	fastest := func(c hbsp.Ctx) int { return c.Tree().Pid(c.Tree().FastestLeaf()) }
	bcast := func(twoPhaseTop bool) hbsp.Program {
		return func(c hbsp.Ctx) error {
			_, err := BcastHier(c, payloadFor(fastest(c), 96), twoPhaseTop)
			return err
		}
	}
	return []struct {
		name string
		prog func(pl *plan.Planner) hbsp.Program
	}{
		{"gather-hier", plain(func(c hbsp.Ctx) error {
			_, err := GatherHier(c, payloadFor(c.Pid(), 40))
			return err
		})},
		{"bcast-hier/one-phase-top", plain(bcast(false))},
		{"bcast-hier/two-phase-top", plain(bcast(true))},
		{"scatter-hier", plain(func(c hbsp.Ctx) error {
			var pieces map[int][]byte
			if c.Pid() == fastest(c) {
				pieces = make(map[int][]byte)
				for pid := 0; pid < c.NProcs(); pid++ {
					pieces[pid] = payloadFor(pid, 24)
				}
			}
			_, err := ScatterHier(c, pieces)
			return err
		})},
		{"allgather-hier", plain(func(c hbsp.Ctx) error {
			_, err := AllGatherHier(c, payloadFor(c.Pid(), 16))
			return err
		})},
		{"reduce-hier", plain(func(c hbsp.Ctx) error {
			_, err := ReduceHier(c, vecFor(c.Pid()), Sum)
			return err
		})},
		{"allreduce", plain(func(c hbsp.Ctx) error {
			_, err := AllReduce(c, vecFor(c.Pid()), Sum)
			return err
		})},
		{"scan-hier", plain(func(c hbsp.Ctx) error {
			_, err := ScanHier(c, vecFor(c.Pid()), Sum)
			return err
		})},
		{"total-exchange-hier", plain(func(c hbsp.Ctx) error {
			out := make(map[int][]byte, c.NProcs())
			for dst := 0; dst < c.NProcs(); dst++ {
				out[dst] = []byte{byte(c.Pid()), byte(dst)}
			}
			_, err := TotalExchangeHier(c, out)
			return err
		})},
		{"planned-round", func(pl *plan.Planner) hbsp.Program {
			return func(c hbsp.Ctx) error {
				if _, err := PlannedBcast(c, pl, 4096, payloadFor(fastest(c), 4096)); err != nil {
					return err
				}
				_, err := PlannedAllReduce(c, pl, vecFor(c.Pid()), Sum)
				return err
			}
		}},
	}
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
	rec := obsv.New(obsv.Config{Capacity: 1 << 12})
	pl := plan.New()
	eng := hbsp.NewVirtual(tr, fabric.New(tr, cfg))
	eng.Obsv, eng.Chaos = rec, chaos
	rep, err := eng.Run(prog(pl))
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
	const runs = 20
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
			{name: "noisy", cfg: fabric.PVMNoisy(0.2, 3), mustRun: true},
			{name: "chaos", cfg: fabric.PVM(), chaos: &fabric.ChaosPlan{
				Seed: 11, Delay: 0.3, DelaySteps: 1,
				Crashes: []fabric.Crash{{Pid: p - 1, AtStep: 1}},
			}},
		}
		for _, mode := range modes {
			for _, tc := range hierCases() {
				t.Run(treeName+"/"+mode.name+"/"+tc.name, func(t *testing.T) {
					first := virtualOutcome(t, tr, mode.cfg, mode.chaos, tc.prog)
					if mode.mustRun && first.err != "" {
						t.Fatalf("run failed: %s", first.err)
					}
					for i := 1; i < runs; i++ {
						got := virtualOutcome(t, tr, mode.cfg, mode.chaos, tc.prog)
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
