package collective_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hbspk/internal/catalog"
	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Schedule exploration over the catalogue: every collective entry is
// replayed under 8 seeded delivery-order permutations with the happens-before checker armed,
// and must fingerprint identically — the HBSP^k promise that a
// superstep's outcome is independent of message timing, enforced on the
// real algorithms. Every processor also checks its result.

// exploreNames gives four lanes the subtest name of the library call
// they ran before the test ran the catalogue, so that their test IDs
// hold.
var exploreNames = map[string]string{
	"bcast1":        "bcast-one-phase",
	"bcast2":        "bcast-two-phase",
	"alltoall":      "total-exchange",
	"alltoall-hier": "total-exchange-hier",
}

// TestCollectivesPassScheduleExploration runs the catalogue's collective
// entries on a drawn sweep input on the flat testbed and the CLI's grid, where a fingerprint also hashes the
// step index of every sibling-cluster delivery. Each fold also runs
// under Max and Min: it must be delivery-order independent under every
// shipped operator. Sum keeps the bare names.
func TestCollectivesPassScheduleExploration(t *testing.T) {
	const seed = int64(0xE4B)
	for _, tc := range []struct {
		prefix string
		tree   *model.Tree
	}{
		{"", model.UCFTestbedN(6)},
		{"grid/", model.WideAreaGrid(3, 4, 12, 25000, 250000)},
	} {
		env := sweepEnvOn(seed, rand.New(rand.NewSource(seed)), tc.tree)
		env.in.Op = collective.Sum
		for _, e := range catalog.Entries() {
			if e.Family == "" {
				continue
			}
			name := e.Name
			if old, ok := exploreNames[name]; ok {
				name = old
			}
			ops := []collective.Op{collective.Sum}
			if e.Family == "reduce" || e.Family == "allreduce" {
				ops = append(ops, collective.Max, collective.Min)
			}
			for _, op := range ops {
				in := *env.in
				in.Op = op
				lane := name
				if op.Name != collective.Sum.Name {
					lane += "-" + op.Name
				}
				t.Run(tc.prefix+lane, func(t *testing.T) {
					eng := hbsp.NewVirtual(tc.tree, fabric.New(tc.tree, fabric.PureModel()))
					eng.Verify = true
					set, err := eng.RunSchedules(e.On(&in), 8, 1234)
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
}

// Exploration composes with chaos: message fates hash message
// identities, not delivery order, so a faulted run must still be
// schedule-independent.
func TestExplorationUnderChaosAgrees(t *testing.T) {
	tr := model.UCFTestbedN(6)
	gather, err := catalog.Lookup("gather")
	if err != nil {
		t.Fatal(err)
	}
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{Seed: 99, Drop: 0.15, Duplicate: 0.1}
	set, err := eng.RunSchedules(gather.Program(tr, catalog.Args{N: 96}), 8, 7)
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
	tr := model.UCFTestbedN(6)
	root := collective.FastestPid(tr)
	sub := collective.Op{Name: "sub", Apply: func(a, b int64) int64 { return a*2 - b }, Cost: 0.05}
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	set, err := eng.RunSchedules(func(c hbsp.Ctx) error {
		out, err := collective.Reduce(c, c.Tree().Root, root, []int64{int64(c.Pid()), 1, int64(c.Pid() * c.Pid())}, sub)
		c.Save("result", fmt.Append(nil, out))
		return err
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
