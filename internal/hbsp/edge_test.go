package hbsp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

func TestDeepChainScopedSyncsEveryLevel(t *testing.T) {
	const k = 5
	tr := model.DeepChain(k)
	rep := runPure(t, tr, func(c Ctx) error {
		// Sweep the levels like the hierarchical gather does: sync on
		// every enclosing cluster from level 1 to k.
		for lvl := 1; lvl <= c.Tree().K(); lvl++ {
			scope := c.Tree().ScopeAt(c.Self(), lvl)
			if scope == nil || scope.IsLeaf() {
				continue
			}
			if err := c.Sync(scope, fmt.Sprintf("lvl%d", lvl)); err != nil {
				return err
			}
		}
		return nil
	})
	// The chain has one cluster per level: k steps in total.
	if rep.Supersteps() != k {
		t.Errorf("steps = %d, want %d", rep.Supersteps(), k)
	}
	for i, s := range rep.Steps {
		if s.Level != i+1 {
			t.Errorf("step %d at level %d, want %d", i, s.Level, i+1)
		}
	}
}

func TestMovesResetEachSuperstep(t *testing.T) {
	tr := model.UCFTestbedN(2)
	runPure(t, tr, func(c Ctx) error {
		if c.Pid() == 0 {
			if err := c.Send(1, 0, []byte("once")); err != nil {
				return err
			}
		}
		if err := SyncAll(c, "s1"); err != nil {
			return err
		}
		if c.Pid() == 1 && len(c.Moves()) != 1 {
			return fmt.Errorf("step 1 moves = %d", len(c.Moves()))
		}
		if err := SyncAll(c, "s2"); err != nil {
			return err
		}
		if len(c.Moves()) != 0 {
			return fmt.Errorf("stale moves after empty step: %d", len(c.Moves()))
		}
		return nil
	})
}

func TestChargeAccumulatesWithinStepOnly(t *testing.T) {
	tr := model.UCFTestbedN(1)
	rep := runPure(t, tr, func(c Ctx) error {
		c.Charge(10)
		c.Charge(5)
		if err := SyncAll(c, "a"); err != nil {
			return err
		}
		c.Charge(1)
		return SyncAll(c, "b")
	})
	if rep.Steps[0].W != 15 || rep.Steps[1].W != 1 {
		t.Errorf("W = %v,%v; want 15,1", rep.Steps[0].W, rep.Steps[1].W)
	}
}

func TestNegativeAndZeroChargeIgnored(t *testing.T) {
	tr := model.SingleProcessor()
	rep := runPure(t, tr, func(c Ctx) error {
		c.Charge(-100)
		c.Charge(0)
		return SyncAll(c, "s")
	})
	if rep.Total != 0 {
		t.Errorf("total = %v, want 0", rep.Total)
	}
}

func TestUnsentCrossClusterMessageSurvivesManyLocalSteps(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{model.NewLeaf("a0"), model.NewLeaf("a1")}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{model.NewLeaf("b0"), model.NewLeaf("b1")}, model.WithSync(1))
	tr := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	runPure(t, tr, func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if c.Pid() == 0 {
			if err := c.Send(3, 5, []byte("later")); err != nil {
				return err
			}
		}
		// Several local rounds before any global sync.
		for i := 0; i < 3; i++ {
			if err := c.Sync(cluster, "local"); err != nil {
				return err
			}
			if c.Pid() == 3 && len(c.Moves()) != 0 {
				return errors.New("cross-cluster message leaked into a local step")
			}
		}
		if err := SyncAll(c, "global"); err != nil {
			return err
		}
		if c.Pid() == 3 {
			ms := c.Moves()
			if len(ms) != 1 || string(ms[0].Payload) != "later" {
				return fmt.Errorf("p3 moves = %v", ms)
			}
		}
		return nil
	})
}

func TestSyncOnForeignScopeDetected(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{model.NewLeaf("a0"), model.NewLeaf("a1")}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{model.NewLeaf("b0"), model.NewLeaf("b1")}, model.WithSync(1))
	tr := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	engines := []struct {
		name string
		run  func(plan *fabric.ChaosPlan, prog Program) error
	}{
		{"virtual", func(plan *fabric.ChaosPlan, prog Program) error {
			_, err := RunVirtualChaos(tr, fabric.PureModel(), plan, prog)
			return err
		}},
		{"concurrent", func(plan *fabric.ChaosPlan, prog Program) error {
			eng := NewConcurrent(tr)
			eng.Chaos = plan
			_, err := eng.Run(prog)
			return err
		}},
	}
	want := "syncing on foreign scope " + tr.Root.Children[0].Label()
	for _, e := range engines {
		// Every processor syncs on cluster A — including B's members,
		// which are not under it.
		err := e.run(nil, func(c Ctx) error {
			return c.Sync(c.Tree().Root.Children[0], "wrong")
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: foreign-scope sync: got %v, want an error containing %q", e.name, err, want)
		}
	}

	// The rejection changes no state, so a program that absorbs it stays
	// aligned with its peers: three all-to-all global supersteps under a
	// drop/duplicate plan deliver the same messages on both engines.
	plan := &fabric.ChaosPlan{Seed: 11, Drop: 0.2, Duplicate: 0.2}
	const rounds = 3
	p := tr.NProcs()
	digests := make(map[string][][]byte)
	for _, e := range engines {
		rejected := make([]error, p)
		got := make([][]byte, p)
		err := e.run(plan, func(c Ctx) error {
			rejected[c.Pid()] = c.Sync(c.Tree().Root.Children[0], "wrong")
			var digest []byte
			for r := 0; r < rounds; r++ {
				for dst := 0; dst < c.NProcs(); dst++ {
					if err := c.Send(dst, r, []byte{byte(c.Pid()), byte(r)}); err != nil {
						return err
					}
				}
				if err := SyncAll(c, "all-to-all"); err != nil {
					return err
				}
				for _, m := range c.Moves() {
					digest = append(digest, byte(m.Src), byte(m.Tag), m.Payload[0], m.Payload[1])
				}
			}
			got[c.Pid()] = digest
			return nil
		})
		if err != nil {
			t.Fatalf("%s: run after an absorbed rejection: %v", e.name, err)
		}
		for pid, rerr := range rejected {
			if foreign := pid >= 2; foreign != (rerr != nil) ||
				foreign && !strings.Contains(rerr.Error(), want) {
				t.Errorf("%s: p%d sync on cluster A returned %v", e.name, pid, rerr)
			}
		}
		digests[e.name] = got
	}
	faultFree := 4 * rounds * p // digest bytes per processor with nothing dropped or duplicated
	perturbed := false
	for pid := 0; pid < p; pid++ {
		v, c := digests["virtual"][pid], digests["concurrent"][pid]
		if !bytes.Equal(v, c) {
			t.Errorf("p%d deliveries differ across engines:\nvirtual    %v\nconcurrent %v", pid, v, c)
		}
		perturbed = perturbed || len(v) != faultFree
	}
	if !perturbed {
		t.Error("the chaos plan dropped and duplicated nothing: the comparison exercised no fate")
	}
}

func TestVirtualManySmallSupersteps(t *testing.T) {
	// Stress the engine's request loop: 200 supersteps on 10 procs.
	tr := model.UCFTestbed()
	const rounds = 200
	rep := runPure(t, tr, func(c Ctx) error {
		for i := 0; i < rounds; i++ {
			if err := c.Send((c.Pid()+1)%c.NProcs(), i, []byte{byte(i)}); err != nil {
				return err
			}
			if err := SyncAll(c, "r"); err != nil {
				return err
			}
			if len(c.Moves()) != 1 {
				return fmt.Errorf("round %d: %d moves", i, len(c.Moves()))
			}
		}
		return nil
	})
	if rep.Supersteps() != rounds {
		t.Errorf("steps = %d, want %d", rep.Supersteps(), rounds)
	}
}

func TestConcurrentTimeDilation(t *testing.T) {
	// With a real TimeUnit, a charged computation must consume at
	// least its nominal wall time.
	tr := model.UCFTestbedN(2)
	eng := NewConcurrent(tr)
	eng.TimeUnit = 50 * time.Microsecond
	start := time.Now()
	_, err := eng.Run(func(c Ctx) error {
		if c.Pid() == 0 {
			c.Charge(100) // ≥ 5ms on the fastest machine
		}
		return SyncAll(c, "s")
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("dilated run took %v, want ≥ 5ms", elapsed)
	}
}

func TestStepStartEndOrdering(t *testing.T) {
	tr := model.Figure1Cluster()
	rep := runPure(t, tr, func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if cluster != nil && !cluster.IsLeaf() {
			if err := c.Sync(cluster, "local"); err != nil { // scope-uniform: all leaves of one cluster branch together
				return err
			}
		}
		return SyncAll(c, "global")
	})
	for _, s := range rep.Steps {
		if s.End < s.Start {
			t.Errorf("step %q ends before it starts: [%v, %v]", s.Label, s.Start, s.End)
		}
	}
	// The global step must start no earlier than every local step's end
	// (it synchronizes everyone).
	var globalStart float64
	for _, s := range rep.Steps {
		if s.Label == "global" {
			globalStart = s.Start
		}
	}
	for _, s := range rep.Steps {
		if s.Label == "local" && s.End > globalStart {
			t.Errorf("local step ends at %v after global start %v", s.End, globalStart)
		}
	}
}

func TestReportTimelineFromRealRun(t *testing.T) {
	tr := model.Figure1Cluster()
	rep := runPure(t, tr, func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if cluster != nil && !cluster.IsLeaf() {
			if err := c.Sync(cluster, "local"); err != nil { // scope-uniform: all leaves of one cluster branch together
				return err
			}
		}
		return SyncAll(c, "global")
	})
	tl := rep.Timeline(100)
	if len(tl) == 0 || tl == "(no supersteps)\n" {
		t.Errorf("timeline empty:\n%s", tl)
	}
}

func TestStepLimitAbortsRunawayProgram(t *testing.T) {
	tr := model.UCFTestbedN(3)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.MaxSteps = 10
	_, err := eng.Run(func(c Ctx) error {
		for { // a program that never terminates on its own
			if err := SyncAll(c, "spin"); err != nil {
				return err
			}
		}
	})
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
	// Well-behaved programs under the limit are unaffected.
	eng2 := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng2.MaxSteps = 10
	if _, err := eng2.Run(func(c Ctx) error { return SyncAll(c, "once") }); err != nil {
		t.Errorf("limited engine rejected a short program: %v", err)
	}
}
