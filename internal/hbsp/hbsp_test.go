package hbsp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

func runPure(t *testing.T, tr *model.Tree, prog Program) *trace.Report {
	t.Helper()
	rep, err := RunVirtual(tr, fabric.PureModel(), prog)
	if err != nil {
		t.Fatalf("RunVirtual: %v", err)
	}
	return rep
}

func TestSinglePassNoSync(t *testing.T) {
	tr := model.UCFTestbedN(4)
	rep := runPure(t, tr, func(c Ctx) error { return nil })
	if rep.Supersteps() != 0 || rep.Total != 0 {
		t.Errorf("empty program: steps=%d total=%v", rep.Supersteps(), rep.Total)
	}
}

func TestMessageAvailableNextSuperstep(t *testing.T) {
	tr := model.UCFTestbedN(2)
	got := make([]string, 2)
	rep := runPure(t, tr, func(c Ctx) error {
		if c.Pid() == 0 {
			if err := c.Send(1, 7, []byte("ping")); err != nil {
				return err
			}
		}
		// Before the sync nothing is visible.
		if len(c.Moves()) != 0 {
			return fmt.Errorf("p%d saw messages before sync", c.Pid())
		}
		if err := SyncAll(c, "step1"); err != nil {
			return err
		}
		if c.Pid() == 1 {
			ms := c.Moves()
			if len(ms) != 1 || ms[0].Src != 0 || ms[0].Tag != 7 {
				return fmt.Errorf("p1 moves = %v", ms)
			}
			got[1] = string(ms[0].Payload)
		}
		return nil
	})
	if got[1] != "ping" {
		t.Errorf("payload = %q, want ping", got[1])
	}
	if rep.Supersteps() != 1 {
		t.Errorf("steps = %d, want 1", rep.Supersteps())
	}
}

func TestStepCostChargedPerEquationOne(t *testing.T) {
	// Two processors, slow r = 3, L = 11: p1 (slow) sends 100 bytes and
	// charges 5 units of work (scaled by comp slowdown 3 → 15).
	root := model.NewCluster("pair", []*model.Machine{
		model.NewLeaf("fast"),
		model.NewLeaf("slow", model.WithComm(3), model.WithComp(3)),
	}, model.WithSync(11))
	tr := model.MustNew(root, 2).Normalize() // g = 2
	rep := runPure(t, tr, func(c Ctx) error {
		if c.Pid() == 1 {
			c.Charge(5)
			if err := c.Send(0, 0, make([]byte, 100)); err != nil {
				return err
			}
		}
		return SyncAll(c, "s")
	})
	if rep.Supersteps() != 1 {
		t.Fatalf("steps = %d, want 1", rep.Supersteps())
	}
	s := rep.Steps[0]
	// w = 5·3 = 15; h = max(3·100 sent, 1·100 recv) = 300; T = 15 + 2·300 + 11.
	if s.W != 15 || s.H != 300 || s.Sync != 11 || s.Time != 15+600+11 {
		t.Errorf("step = %+v, want W=15 H=300 L=11 T=626", s)
	}
	if rep.Total != 626 {
		t.Errorf("total = %v, want 626", rep.Total)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	tr := model.UCFTestbed()
	prog := func(c Ctx) error {
		for round := 0; round < 3; round++ {
			dst := (c.Pid() + round + 1) % c.NProcs()
			if err := c.Send(dst, round, make([]byte, 100*(c.Pid()+1))); err != nil {
				return err
			}
			c.Charge(float64(10 * c.Pid()))
			if err := SyncAll(c, fmt.Sprintf("round%d", round)); err != nil {
				return err
			}
		}
		return nil
	}
	r1 := runPure(t, tr, prog)
	r2 := runPure(t, tr, prog)
	if r1.Total != r2.Total || r1.Supersteps() != r2.Supersteps() {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", r1.Total, r1.Supersteps(), r2.Total, r2.Supersteps())
	}
	for i := range r1.Steps {
		if !sameStep(r1.Steps[i], r2.Steps[i]) {
			t.Errorf("step %d differs:\n%+v %+v\n%+v %+v", i, r1.Steps[i], *r1.Steps[i].Shape, r2.Steps[i], *r2.Steps[i].Shape)
		}
	}
}

func TestMovesOrderedBySenderThenSeq(t *testing.T) {
	tr := model.UCFTestbedN(4)
	runPure(t, tr, func(c Ctx) error {
		if c.Pid() != 0 {
			// Everyone sends two messages to p0, higher pids first by
			// racing — ordering must still come out sorted.
			if err := c.Send(0, 1, []byte{byte(c.Pid()), 1}); err != nil {
				return err
			}
			if err := c.Send(0, 2, []byte{byte(c.Pid()), 2}); err != nil {
				return err
			}
		}
		if err := SyncAll(c, "s"); err != nil {
			return err
		}
		if c.Pid() == 0 {
			ms := c.Moves()
			if len(ms) != 6 {
				return fmt.Errorf("p0 got %d messages, want 6", len(ms))
			}
			want := [][2]byte{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}}
			for i, m := range ms {
				if m.Payload[0] != want[i][0] || m.Payload[1] != want[i][1] {
					return fmt.Errorf("ms[%d] = src %d seq %d, want %v", i, m.Payload[0], m.Payload[1], want[i])
				}
			}
		}
		return nil
	})
}

func TestScopedSyncClusterIndependence(t *testing.T) {
	// Two clusters with very different L: each cluster runs one local
	// superstep; cluster clocks advance independently, then a global
	// sync aligns them.
	a := model.NewCluster("A", []*model.Machine{
		model.NewLeaf("a0"), model.NewLeaf("a1"),
	}, model.WithSync(10))
	b := model.NewCluster("B", []*model.Machine{
		model.NewLeaf("b0"), model.NewLeaf("b1"),
	}, model.WithSync(1000))
	tr := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(5000)), 1).Normalize()

	rep := runPure(t, tr, func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if err := c.Sync(cluster, "local"); err != nil {
			return err
		}
		return SyncAll(c, "global")
	})
	if rep.Supersteps() != 3 {
		t.Fatalf("steps = %d, want 3 (A local, B local, global)", rep.Supersteps())
	}
	// Global step starts at max(10, 1000) and adds L = 5000.
	if rep.Total != 6000 {
		t.Errorf("total = %v, want 6000", rep.Total)
	}
	var levels []int
	for _, s := range rep.Steps {
		levels = append(levels, s.Level)
	}
	if levels[0] != 1 || levels[1] != 1 || levels[2] != 2 {
		t.Errorf("levels = %v, want [1 1 2]", levels)
	}
}

func TestCrossClusterMessageWaitsForCoveringSync(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{
		model.NewLeaf("a0"), model.NewLeaf("a1"),
	}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{
		model.NewLeaf("b0"), model.NewLeaf("b1"),
	}, model.WithSync(1))
	tr := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	// pids: a0=0 a1=1 b0=2 b1=3.
	runPure(t, tr, func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if c.Pid() == 0 {
			if err := c.Send(2, 0, []byte("wan")); err != nil {
				return err
			}
		}
		if err := c.Sync(cluster, "local"); err != nil {
			return err
		}
		if c.Pid() == 2 && len(c.Moves()) != 0 {
			return errors.New("cross-cluster message delivered by cluster sync")
		}
		if err := SyncAll(c, "global"); err != nil {
			return err
		}
		if c.Pid() == 2 {
			ms := c.Moves()
			if len(ms) != 1 || string(ms[0].Payload) != "wan" {
				return fmt.Errorf("p2 moves = %v", ms)
			}
		}
		return nil
	})
}

func TestSelfSendDeliveredButFree(t *testing.T) {
	tr := model.UCFTestbedN(2)
	rep := runPure(t, tr, func(c Ctx) error {
		if c.Pid() == 0 {
			if err := c.Send(0, 0, []byte("mine")); err != nil {
				return err
			}
		}
		if err := SyncAll(c, "s"); err != nil {
			return err
		}
		if c.Pid() == 0 {
			if len(c.Moves()) != 1 {
				return errors.New("self-send not delivered")
			}
		}
		return nil
	})
	if rep.Steps[0].H != 0 || rep.Steps[0].Bytes != 0 {
		t.Errorf("self-send charged: %+v", rep.Steps[0])
	}
}

func TestDesyncDetected(t *testing.T) {
	tr := model.UCFTestbedN(2)
	_, err := RunVirtual(tr, fabric.PureModel(), func(c Ctx) error {
		if c.Pid() == 0 { //hbspk:ignore pidtaint (deliberate desync under test)
			return SyncAll(c, "s")
		}
		return nil
	})
	if !errors.Is(err, ErrDesync) {
		t.Errorf("err = %v, want ErrDesync", err)
	}
}

func TestMismatchedScopesDetected(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{model.NewLeaf("a0"), model.NewLeaf("a1")}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{model.NewLeaf("b0"), model.NewLeaf("b1")}, model.WithSync(1))
	tr := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	_, err := RunVirtual(tr, fabric.PureModel(), func(c Ctx) error {
		if c.Pid() == 0 { //hbspk:ignore pidtaint (deliberate desync under test)
			return SyncAll(c, "global")
		}
		return c.Sync(c.Tree().ScopeAt(c.Self(), 1), "local")
	})
	if !errors.Is(err, ErrDesync) {
		t.Errorf("err = %v, want ErrDesync", err)
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	tr := model.UCFTestbedN(4)
	boom := errors.New("boom")
	_, err := RunVirtual(tr, fabric.PureModel(), func(c Ctx) error {
		if c.Pid() == 2 {
			return boom
		}
		return SyncAll(c, "s")
	})
	if err == nil {
		t.Fatal("program error swallowed")
	}
}

func TestProcessorPanicRecovered(t *testing.T) {
	tr := model.UCFTestbedN(3)
	_, err := RunVirtual(tr, fabric.PureModel(), func(c Ctx) error {
		if c.Pid() == 1 {
			panic("kaput")
		}
		return SyncAll(c, "s")
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestSendOutOfRange(t *testing.T) {
	tr := model.UCFTestbedN(2)
	_, err := RunVirtual(tr, fabric.PureModel(), func(c Ctx) error {
		return c.Send(99, 0, nil)
	})
	if err == nil {
		t.Fatal("out-of-range send accepted")
	}
}

func TestEnquiryPrimitives(t *testing.T) {
	tr := model.UCFTestbed()
	runPure(t, tr, func(c Ctx) error {
		if c.NProcs() != 10 {
			return fmt.Errorf("NProcs = %d", c.NProcs())
		}
		if Share(c) <= 0 || Share(c) >= 1 {
			return fmt.Errorf("share = %v", Share(c))
		}
		if (c.Self() == c.Tree().FastestLeaf()) != (c.Tree().Root.Coordinator() == c.Self()) {
			return errors.New("coordinator mismatch")
		}
		return nil
	})
}

func TestHBSP0SingleProcessor(t *testing.T) {
	tr := model.MustNew(model.NewLeaf("cpu"), 1).Normalize()
	rep := runPure(t, tr, func(c Ctx) error {
		c.Charge(42)
		return SyncAll(c, "only")
	})
	if rep.Total != 42 {
		t.Errorf("total = %v, want 42 (no comm, no sync cost)", rep.Total)
	}
}

func TestVirtualReusableSerially(t *testing.T) {
	tr := model.UCFTestbedN(3)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	for i := 0; i < 3; i++ {
		rep, err := eng.Run(func(c Ctx) error { return SyncAll(c, "s") })
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.Supersteps() != 1 {
			t.Fatalf("run %d: steps = %d", i, rep.Supersteps())
		}
	}
}

func TestConcurrentEngineDeliversSameData(t *testing.T) {
	tr := model.UCFTestbedN(6)
	// Ring exchange over two supersteps; compare the data each pid ends
	// with across engines.
	mkProg := func(sink [][]byte) Program {
		return func(c Ctx) error {
			next := (c.Pid() + 1) % c.NProcs()
			if err := c.Send(next, 0, []byte{byte(c.Pid())}); err != nil {
				return err
			}
			if err := SyncAll(c, "ring1"); err != nil {
				return err
			}
			got := append([]byte(nil), c.Moves()[0].Payload...)
			if err := c.Send(next, 0, append(got, byte(c.Pid()))); err != nil {
				return err
			}
			if err := SyncAll(c, "ring2"); err != nil {
				return err
			}
			sink[c.Pid()] = append([]byte(nil), c.Moves()[0].Payload...)
			return nil
		}
	}
	vOut := make([][]byte, 6)
	if _, err := RunVirtual(tr, fabric.PureModel(), mkProg(vOut)); err != nil {
		t.Fatal(err)
	}
	cOut := make([][]byte, 6)
	if _, err := NewConcurrent(tr).Run(mkProg(cOut)); err != nil {
		t.Fatal(err)
	}
	for pid := range vOut {
		if string(vOut[pid]) != string(cOut[pid]) {
			t.Errorf("pid %d: virtual %v vs concurrent %v", pid, vOut[pid], cOut[pid])
		}
	}
}

func TestConcurrentScopedSync(t *testing.T) {
	tr := model.Figure1Cluster()
	counts := make([]int, tr.NProcs())
	_, err := NewConcurrent(tr).Run(func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if cluster != nil && !cluster.IsLeaf() {
			peer := c.Tree().Pid(cluster.Coordinator())
			if err := c.Send(peer, 0, []byte{1}); err != nil {
				return err
			}
			if err := c.Sync(cluster, "local"); err != nil { // scope-uniform: all leaves of one cluster branch together
				return err
			}
			counts[c.Pid()] = len(c.Moves())
		}
		return SyncAll(c, "global")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each cluster coordinator received one message per cluster member
	// (including its own self-send).
	smpCo := tr.Pid(tr.Root.Children[0].Coordinator())
	lanCo := tr.Pid(tr.Root.Children[2].Coordinator())
	if counts[smpCo] != 4 {
		t.Errorf("SMP coordinator received %d, want 4", counts[smpCo])
	}
	if counts[lanCo] != 4 {
		t.Errorf("LAN coordinator received %d, want 4", counts[lanCo])
	}
}

func TestNoisyRunsDifferBySeedOnly(t *testing.T) {
	tr := model.UCFTestbedN(4)
	prog := func(c Ctx) error {
		if err := c.Send((c.Pid()+1)%4, 0, make([]byte, 1000)); err != nil {
			return err
		}
		return SyncAll(c, "s")
	}
	run := func(seed int64) float64 {
		rep, err := RunVirtual(tr, pvmNoisy(0.2, seed), prog)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	if run(1) != run(1) {
		t.Error("same seed, different totals")
	}
	if run(1) == run(2) {
		t.Error("different seeds, identical totals")
	}
}

func TestVirtualTimeMatchesAnalyticTotal(t *testing.T) {
	// A pure-model run's total must equal the sum of its step times
	// when all processors participate in every step.
	tr := model.UCFTestbed()
	rep := runPure(t, tr, func(c Ctx) error {
		for i := 0; i < 4; i++ {
			if err := c.Send((c.Pid()+i)%c.NProcs(), 0, make([]byte, 512)); err != nil {
				return err
			}
			if err := SyncAll(c, "x"); err != nil {
				return err
			}
		}
		return nil
	})
	sum := 0.0
	for _, s := range rep.Steps {
		sum += s.Time
	}
	if math.Abs(sum-rep.Total) > 1e-9 {
		t.Errorf("total %v != step sum %v", rep.Total, sum)
	}
}
