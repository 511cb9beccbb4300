package plan_test

// Engine-level planner tests: the auto-tuned dispatchers under real
// runs on both engines — deterministic picks under equal seeds, equal
// picks on both engines, and picks that follow the tree when it
// reorganizes underneath a live planner.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// planSweepProg exercises one planned collective per family group at
// several payload buckets and checks every result against its known
// value, so a planner that desynchronized the variant choice across
// processors fails loudly instead of silently.
func planSweepProg(pl *plan.Planner) hbsp.Program {
	return func(c hbsp.Ctx) error {
		t := c.Tree()
		p := c.NProcs()
		for _, n := range []int{512, 1 << 14, 1 << 19} {
			root := t.Pid(t.FastestLeaf())
			var data []byte
			if c.Pid() == root {
				data = bytes.Repeat([]byte{0xAB}, n)
			}
			out, err := collective.PlannedBcast(c, pl, n, data)
			if err != nil {
				return err
			}
			if len(out) != n || out[0] != 0xAB || out[n-1] != 0xAB {
				return fmt.Errorf("p%d: bcast(%d) corrupted", c.Pid(), n)
			}
		}
		local := bytes.Repeat([]byte{byte(c.Pid())}, 64)
		gathered, err := collective.PlannedGather(c, pl, 64*p, local)
		if err != nil {
			return err
		}
		if c.Pid() == t.Pid(t.FastestLeaf()) {
			for pid := 0; pid < p; pid++ {
				if len(gathered[pid]) != 64 || gathered[pid][0] != byte(pid) {
					return fmt.Errorf("gather: piece %d corrupted", pid)
				}
			}
		}
		vec := []int64{int64(c.Pid() + 1), 10}
		sum, err := collective.PlannedAllReduce(c, pl, vec, collective.Sum)
		if err != nil {
			return err
		}
		want := int64(p * (p + 1) / 2)
		if sum[0] != want || sum[1] != int64(10*p) {
			return fmt.Errorf("p%d: allreduce = %v, want [%d %d]", c.Pid(), sum, want, 10*p)
		}
		pre, err := collective.PlannedScan(c, pl, []int64{int64(c.Pid() + 1)}, collective.Sum)
		if err != nil {
			return err
		}
		wantPre := int64((c.Pid() + 1) * (c.Pid() + 2) / 2)
		if pre[0] != wantPre {
			return fmt.Errorf("p%d: scan = %v, want %d", c.Pid(), pre, wantPre)
		}
		return nil
	}
}

// Equal seeds must give equal picks: two virtual runs with fresh
// planners end in identical decision caches and counters.
func TestPlannedPicksDeterministicVirtual(t *testing.T) {
	tr := model.UCFTestbedN(8)
	layout := tr.SaveLayout()
	run := func() (*plan.Planner, error) {
		tr.RestoreLayout(layout)
		pl := plan.New()
		_, err := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel())).Run(planSweepProg(pl))
		return pl, err
	}
	pl1, err := run()
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	pl2, err := run()
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !reflect.DeepEqual(pl1.Decisions(), pl2.Decisions()) {
		t.Errorf("same seed, different decision caches:\n%v\nvs\n%v", pl1.Decisions(), pl2.Decisions())
	}
	if s1, s2 := pl1.Stats(), pl2.Stats(); s1 != s2 {
		t.Errorf("same seed, different planner counters: %+v vs %+v", s1, s2)
	}
	if s := pl1.Stats(); s.Misses == 0 || s.Hits == 0 {
		t.Errorf("run exercised no planner path: %+v", s)
	}
}

// Picks are pure closed-form functions of (tree, family, bucket): both
// engines running the same program on equal trees must
// build identical decision caches.
func TestPlannedPicksAgreeAcrossEngines(t *testing.T) {
	trV := model.UCFTestbedN(8)
	plV := plan.New()
	if _, err := hbsp.NewVirtual(trV, fabric.New(trV, fabric.PureModel())).Run(planSweepProg(plV)); err != nil {
		t.Fatalf("virtual: %v", err)
	}
	trC := model.UCFTestbedN(8)
	plC := plan.New()
	if _, err := hbsp.NewConcurrent(trC).Run(planSweepProg(plC)); err != nil {
		t.Fatalf("concurrent: %v", err)
	}
	dv, dc := plV.Decisions(), plC.Decisions()
	if !reflect.DeepEqual(dv, dc) {
		t.Errorf("engines disagree on picks:\nvirtual    %v\nconcurrent %v", dv, dc)
	}
	if len(dv) == 0 {
		t.Errorf("no decisions cached")
	}
}

// slotPids returns leaf pids in slot (layout) order.
func slotPids(tr *model.Tree) []int {
	var out []int
	tr.Root.Walk(func(m *model.Machine) {
		if m.IsLeaf() {
			out = append(out, tr.Pid(m))
		}
	})
	return out
}

// A Reranker-driven reorganization changes the tree's fingerprint, so
// the planner must price the new tree afresh rather than serve a pick
// made for the old one: a sustained 10× straggler on the fastest leaf
// forces real layout permutations every second barrier. Before each
// dispatch every processor checks that the planner's pick is the
// closed-form best on the tree it is running on, and the pick keyed to
// the final tree must be that tree's best variant. Reorganization is
// Virtual's: Concurrent runs the layout it starts with.
func TestPlannerPicksFollowReorg(t *testing.T) {
	const n = 4096
	t.Run("virtual", func(t *testing.T) {
		tr := model.UCFTestbedN(8)
		before := slotPids(tr)
		pl := plan.New()
		chaos := &fabric.ChaosPlan{
			Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 60, Factor: 10}},
		}
		prog := func(c hbsp.Ctx) error {
			for round := 0; round < 10; round++ {
				// A cut never lands inside a collective: this global
				// barrier is where the due reorganizations apply.
				c.Charge(2)
				if err := hbsp.SyncAll(c, "round"); err != nil {
					return err
				}
				t := c.Tree()
				d, _ := pl.Decide(t, "bcast", n)
				if best, _, _ := plan.BestVariant(t, "bcast", d.Rep); d.Variant.Name != best.Name {
					return fmt.Errorf("p%d round %d: planner serves %s, tree %016x prices %s best",
						c.Pid(), round, d.Variant.Name, t.Fingerprint(), best.Name)
				}
				root := t.Pid(t.FastestLeaf())
				var data []byte
				if c.Pid() == root {
					data = bytes.Repeat([]byte{0x5C}, n)
				}
				out, err := collective.PlannedBcast(c, pl, n, data)
				if err != nil {
					return err
				}
				if len(out) != n || out[0] != 0x5C {
					return fmt.Errorf("p%d round %d: bcast corrupted", c.Pid(), round)
				}
			}
			return nil
		}
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = chaos
		eng.ReorgEvery = 2
		eng.ReorgSeed = 42
		if _, err := eng.Run(prog); err != nil {
			t.Fatalf("run: %v", err)
		}
		fps := map[uint64]bool{}
		var final *plan.CachedDecision
		for _, d := range pl.Decisions() {
			fps[d.FP] = true
			if d.FP == tr.Fingerprint() {
				final = &d
			}
		}
		if final == nil {
			t.Fatalf("no pick keyed to the final tree %016x: %v", tr.Fingerprint(), pl.Decisions())
		}
		if best, _, _ := plan.BestVariant(tr, "bcast", final.Rep); final.Variant != best.Name {
			t.Errorf("final tree's pick %s, its closed-form best %s", final.Variant, best.Name)
		}
		if len(fps) < 2 {
			t.Errorf("picks keyed to %d fingerprint(s), want >= 2: reorgs never reached the planner", len(fps))
		}
		if reflect.DeepEqual(before, slotPids(tr)) {
			t.Errorf("straggler did not permute the layout; test exercised nothing")
		}
	})
}
