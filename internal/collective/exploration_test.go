package collective

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Schedule exploration over every shipped collective: each is replayed
// under 8 seeded delivery-order permutations with the happens-before
// checker armed, and must fingerprint identically — the HBSP^k promise
// that a superstep's outcome is independent of message timing, enforced
// on the real algorithms.

const exploreP = 6

// saveMap commits a map result under the processor's Save key with a
// deterministic encoding.
func saveMap(c hbsp.Ctx, key string, m map[int][]byte) {
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	f := newFrame()
	for _, pid := range pids {
		f.add(pid, m[pid])
	}
	c.Save(key, f.bytes())
}

func saveVec(c hbsp.Ctx, key string, v []int64) {
	if v != nil {
		c.Save(key, packVec(v))
	}
}

// exploreCase is one collective program schedule exploration replays.
type exploreCase struct {
	name string
	prog hbsp.Program
}

func exploreCases(tr *model.Tree) []exploreCase {
	root := tr.Pid(tr.FastestLeaf())
	outgoing := func(c hbsp.Ctx) map[int][]byte {
		out := make(map[int][]byte, c.NProcs())
		for dst := 0; dst < c.NProcs(); dst++ {
			out[dst] = []byte{byte(c.Pid()), byte(dst), byte(c.Pid() * dst)}
		}
		return out
	}
	cases := []exploreCase{
		{"gather", func(c hbsp.Ctx) error {
			out, err := Gather(c, c.Tree().Root, root, payloadFor(c.Pid(), 8+c.Pid()))
			if err != nil {
				return err
			}
			if out != nil {
				saveMap(c, "result", out)
			}
			return nil
		}},
		{"gather-hier", func(c hbsp.Ctx) error {
			out, err := GatherHier(c, payloadFor(c.Pid(), 8))
			if err != nil {
				return err
			}
			if out != nil {
				saveMap(c, "result", out)
			}
			return nil
		}},
		{"bcast-one-phase", func(c hbsp.Ctx) error {
			out, err := BcastOnePhase(c, c.Tree().Root, root, payloadFor(root, 24))
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"bcast-two-phase", func(c hbsp.Ctx) error {
			data := payloadFor(root, 48)
			out, err := BcastTwoPhase(c, c.Tree().Root, root, data, EqualPieces(c, c.Tree().Root, len(data)))
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"bcast-hier", func(c hbsp.Ctx) error {
			out, err := BcastHier(c, payloadFor(root, 32), true)
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"bcast-binomial", func(c hbsp.Ctx) error {
			out, err := BcastBinomial(c, c.Tree().Root, root, payloadFor(root, 16))
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"scatter", func(c hbsp.Ctx) error {
			var pieces map[int][]byte
			if c.Pid() == root {
				pieces = make(map[int][]byte)
				for pid := 0; pid < c.NProcs(); pid++ {
					pieces[pid] = payloadFor(pid, 6)
				}
			}
			out, err := Scatter(c, c.Tree().Root, root, pieces)
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"scatter-hier", func(c hbsp.Ctx) error {
			var pieces map[int][]byte
			if c.Pid() == root {
				pieces = make(map[int][]byte)
				for pid := 0; pid < c.NProcs(); pid++ {
					pieces[pid] = payloadFor(pid, 6)
				}
			}
			out, err := ScatterHier(c, pieces)
			if err != nil {
				return err
			}
			c.Save("result", out)
			return nil
		}},
		{"allgather", func(c hbsp.Ctx) error {
			out, err := AllGather(c, c.Tree().Root, payloadFor(c.Pid(), 5))
			if err != nil {
				return err
			}
			saveMap(c, "result", out)
			return nil
		}},
		{"allgather-hier", func(c hbsp.Ctx) error {
			out, err := AllGatherHier(c, payloadFor(c.Pid(), 5))
			if err != nil {
				return err
			}
			saveMap(c, "result", out)
			return nil
		}},
		{"total-exchange", func(c hbsp.Ctx) error {
			out, err := TotalExchange(c, c.Tree().Root, outgoing(c))
			if err != nil {
				return err
			}
			saveMap(c, "result", out)
			return nil
		}},
		{"total-exchange-hier", func(c hbsp.Ctx) error {
			out, err := TotalExchangeHier(c, outgoing(c))
			if err != nil {
				return err
			}
			saveMap(c, "result", out)
			return nil
		}},
		{"scan", func(c hbsp.Ctx) error {
			out, err := Scan(c, c.Tree().Root, vecFor(c.Pid()), Sum)
			if err != nil {
				return err
			}
			saveVec(c, "result", out)
			return nil
		}},
		{"scan-hier", func(c hbsp.Ctx) error {
			out, err := ScanHier(c, vecFor(c.Pid()), Sum)
			if err != nil {
				return err
			}
			saveVec(c, "result", out)
			return nil
		}},
		{"reduce-scatter", func(c hbsp.Ctx) error {
			local := []int64{int64(c.Pid()), 10, 20, 30, 40, int64(c.Pid() * 2)}
			out, err := ReduceScatter(c, c.Tree().Root, local, EqualPieces(c, c.Tree().Root, len(local)), Sum)
			if err != nil {
				return err
			}
			saveVec(c, "result", out)
			return nil
		}},
	}
	// The reductions under every shipped operator: each fold must be
	// delivery-order independent. Sum keeps the bare names.
	for _, op := range []Op{Sum, Max, Min} {
		suffix := ""
		if op.Name != Sum.Name {
			suffix = "-" + op.Name
		}
		cases = append(cases,
			exploreCase{"reduce" + suffix, func(c hbsp.Ctx) error {
				out, err := Reduce(c, c.Tree().Root, root, vecFor(c.Pid()), op)
				if err != nil {
					return err
				}
				saveVec(c, "result", out)
				return nil
			}},
			exploreCase{"reduce-hier" + suffix, func(c hbsp.Ctx) error {
				out, err := ReduceHier(c, vecFor(c.Pid()), op)
				if err != nil {
					return err
				}
				saveVec(c, "result", out)
				return nil
			}},
			exploreCase{"allreduce" + suffix, func(c hbsp.Ctx) error {
				out, err := AllReduce(c, vecFor(c.Pid()), op)
				if err != nil {
					return err
				}
				saveVec(c, "result", out)
				return nil
			}})
	}
	return cases
}

func TestCollectivesPassScheduleExploration(t *testing.T) {
	// The flat testbed, and the CLI's grid: there a fingerprint also
	// hashes the step index of every sibling-cluster delivery.
	trees := []namedTree{
		{"", model.UCFTestbedN(exploreP)},
		{"grid/", model.WideAreaGrid(3, 4, 12, 25000, 250000)},
	}
	for _, nt := range trees {
		tr := nt.tree
		for _, tc := range exploreCases(tr) {
			t.Run(nt.name+tc.name, func(t *testing.T) {
				eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Verify = true
				set, err := eng.RunSchedules(tc.prog, 8, 1234)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range set.Runs {
					if r.Err != nil {
						t.Fatalf("perm %d: %v", r.Perm, r.Err)
					}
				}
				if !set.Agree() {
					t.Errorf("schedule-dependent result: %s", set.Diff())
				}
			})
		}
	}
}

// Exploration composes with chaos: message fates hash message
// identities, not delivery order, so a faulted run must still be
// schedule-independent.
func TestExplorationUnderChaosAgrees(t *testing.T) {
	tr := model.UCFTestbedN(exploreP)
	root := tr.Pid(tr.FastestLeaf())
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{Seed: 99, Drop: 0.15, Duplicate: 0.1}
	prog := func(c hbsp.Ctx) error {
		out, err := Gather(c, c.Tree().Root, root, payloadFor(c.Pid(), 8))
		if err != nil {
			return err
		}
		if out != nil {
			saveMap(c, "result", out)
		}
		return nil
	}
	set, err := eng.RunSchedules(prog, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Agree() {
		t.Errorf("chaos-faulted gather became schedule-dependent: %s", set.Diff())
	}
}

// An order-dependent fold in a shipped collective is caught end to end:
// doubling the accumulator before subtracting weighs each operand by its
// position, so the flat Reduce's root saves a different vector under
// different delivery orders, and Diff names that save.
func TestRunSchedulesFlagsOrderDependentReduce(t *testing.T) {
	tr := model.UCFTestbedN(exploreP)
	root := tr.Pid(tr.FastestLeaf())
	sub := Op{Name: "sub", Apply: func(a, b int64) int64 { return a*2 - b }, Cost: 0.05}
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	set, err := eng.RunSchedules(func(c hbsp.Ctx) error {
		out, err := Reduce(c, c.Tree().Root, root, vecFor(c.Pid()), sub)
		if err != nil {
			return err
		}
		saveVec(c, "result", out)
		return nil
	}, 8, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if set.Agree() {
		t.Fatal("an order-dependent fold fingerprinted identically under permuted schedules")
	}
	if diff, want := set.Diff(), fmt.Sprintf("p%d saved state %q", root, "result"); !strings.Contains(diff, want) {
		t.Errorf("diff %q does not name the root's saved result %q", diff, want)
	}
}
