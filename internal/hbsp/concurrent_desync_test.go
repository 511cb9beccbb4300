package hbsp

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
)

// desyncTree builds a flat 4-leaf cluster for the watchdog tests.
func desyncTree(t *testing.T) *model.Tree {
	t.Helper()
	root := model.NewCluster("root", []*model.Machine{
		model.NewLeaf("p0"), model.NewLeaf("p1"),
		model.NewLeaf("p2"), model.NewLeaf("p3"),
	}, model.WithSync(1))
	return model.MustNew(root, 1).Normalize()
}

// TestConcurrentDesyncExitedMember is the regression for the
// silent-deadlock gap: before the watchdog, a processor returning early
// while the rest sync left the run blocked forever (this test only
// completed by -timeout panic). Now the exited-member check fires
// deterministically, well before any stall timeout.
func TestConcurrentDesyncExitedMember(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 30 * time.Second // deterministic path must not need the stall clock

	start := time.Now()
	_, err := eng.Run(func(ctx Ctx) error {
		if ctx.Pid() == 1 { //hbspk:ignore pidtaint (deliberate desync under test)
			return nil // p1 exits without ever syncing
		}
		return ctx.Sync(tree.Root, "step")
	})
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("Run = %v, want ErrDesync", err)
	}
	if !strings.Contains(err.Error(), "p1") || !strings.Contains(err.Error(), "exited") {
		t.Errorf("error %q does not name the exited processor", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("exited-member desync took %v; should not wait for the stall timeout", elapsed)
	}
}

// TestConcurrentDesyncStalledBarriers covers the mismatched-barrier
// shape: every processor blocks, but on incompatible waits, so no
// barrier can ever complete and nobody exits. p0 sits at a second
// cluster-A sync that p1 will never join, while p1, p2 and p3 sit at a
// root sync that p0 can never reach — a cyclic wait the deterministic
// exited-member check cannot see, only the stall clock.
func TestConcurrentDesyncStalledBarriers(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{model.NewLeaf("a0"), model.NewLeaf("a1")}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{model.NewLeaf("b0"), model.NewLeaf("b1")}, model.WithSync(1))
	tree := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	scopeA := tree.Root.Children[0]
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 200 * time.Millisecond

	_, err := eng.Run(func(ctx Ctx) error {
		// Deliberate desync under test: every Sync below is pid-divergent.
		if ctx.Pid() == 0 { //hbspk:ignore pidtaint (deliberate desync under test)
			if err := ctx.Sync(scopeA, "inner"); err != nil {
				return err
			}
			// p1 never joins this second inner sync.
			return ctx.Sync(scopeA, "inner-again")
		}
		if ctx.Pid() == 1 { //hbspk:ignore pidtaint (deliberate desync under test)
			if err := ctx.Sync(scopeA, "inner"); err != nil {
				return err
			}
		}
		// p0 never reaches this root sync.
		return ctx.Sync(tree.Root, "step")
	})
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("Run = %v, want ErrDesync", err)
	}
	// The report must name the lagging processor and where everyone waits.
	if !strings.Contains(err.Error(), "waiting:") || !strings.Contains(err.Error(), "lagging:") {
		t.Errorf("error %q lacks the waiting/lagging report", err)
	}
	if !strings.Contains(err.Error(), "p0") {
		t.Errorf("error %q does not name the lagging processor p0", err)
	}
}

// TestConcurrentDesyncDisabled checks the opt-out: a negative timeout
// must not spawn the watchdog, and a well-formed program still runs.
func TestConcurrentDesyncDisabled(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = -1

	ran := 0
	rep, err := eng.Run(func(ctx Ctx) error {
		if err := ctx.Sync(tree.Root, "step"); err != nil {
			return err
		}
		if ctx.Pid() == 0 {
			ran++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 || len(rep.Steps) != 1 {
		t.Errorf("ran=%d steps=%d, want 1 and 1", ran, len(rep.Steps))
	}
}

// TestConcurrentWellFormedUnderWatchdog makes sure the watchdog never
// fires on a healthy multi-step program even with a tight timeout:
// progress between barriers resets the stall clock.
func TestConcurrentWellFormedUnderWatchdog(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 100 * time.Millisecond

	rep, err := eng.Run(func(ctx Ctx) error {
		for step := 0; step < 20; step++ {
			next := (ctx.Pid() + 1) % ctx.NProcs()
			if err := ctx.Send(next, step, []byte{byte(step)}); err != nil {
				return err
			}
			if err := ctx.Sync(tree.Root, "ring"); err != nil {
				return err
			}
			if got := len(ctx.Moves()); got != 1 {
				return errors.New("lost a message under the watchdog")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Steps) != 20 {
		t.Errorf("steps = %d, want 20", len(rep.Steps))
	}
}

// elsewhere is a placement double: a transport that hosts pid 0 only.
// The task standing in for any other pid returns at once — to this
// process, exactly what a finished processor looks like — and a barrier
// completes on the far side after barrierDelay.
type elsewhere struct {
	proxied      atomic.Int32 // stand-in tasks that ran
	barrierDelay time.Duration
}

func (e *elsewhere) Name() string             { return "elsewhere" }
func (e *elsewhere) Attach(*pvm.System) error { return nil }
func (e *elsewhere) Flush(pvm.TID) error      { return nil }
func (e *elsewhere) Close() error             { return nil }
func (e *elsewhere) Deliver(_ pvm.TID, ms []pvm.Message) error {
	for _, m := range ms {
		m.Release()
	}
	return nil
}

func (e *elsewhere) Proxy(tid pvm.TID) func(*pvm.Task) error {
	if tid == 0 {
		return nil
	}
	return func(*pvm.Task) error { e.proxied.Add(1); return nil }
}

func (e *elsewhere) BarrierExchange(pvm.TID, string, int, time.Duration, []byte) (map[pvm.TID][]byte, error) {
	time.Sleep(e.barrierDelay)
	return nil, nil
}

// TestRemotePidsRefuseProcessLocalFaultMachinery: dead sets, cut windows
// and joiner gates live in one process's ledger, so a run that has remote
// pids and asks for any of them is refused before a single task exists.
func TestRemotePidsRefuseProcessLocalFaultMachinery(t *testing.T) {
	for name, arm := range map[string]func(*Concurrent){
		"chaos": func(e *Concurrent) { e.Chaos = &fabric.ChaosPlan{Seed: 1, Drop: 0.1} },
		"churn": func(e *Concurrent) { e.Chaos = &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 3, JoinAt: 2}}} },
		"reorg": func(e *Concurrent) { e.ReorgEvery = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			tr := &elsewhere{}
			eng := NewConcurrent(desyncTree(t))
			eng.Transport = func() (pvm.Transport, error) { return tr, nil }
			arm(eng)
			ran := false
			_, err := eng.Run(func(Ctx) error { ran = true; return nil })
			if err == nil || !strings.Contains(err.Error(), "remote pids") {
				t.Fatalf("Run = %v, want the remote-pids refusal", err)
			}
			if ran || tr.proxied.Load() != 0 {
				t.Fatalf("refused run spawned tasks: program ran = %v, %d stand-ins ran", ran, tr.proxied.Load())
			}
		})
	}
}

// TestWatchdogDoesNotJudgeRemotePids: the stand-in tasks of remote pids
// have all returned while pid 0 waits, through several watchdog ticks and
// past the stall timeout, at a barrier those pids are members of. A
// watchdog that took a returned stand-in for an exited processor, or
// counted it as parked, would declare ErrDesync; the barrier completes
// on the far side and the run must succeed.
func TestWatchdogDoesNotJudgeRemotePids(t *testing.T) {
	tree := desyncTree(t)
	tr := &elsewhere{barrierDelay: 300 * time.Millisecond}
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 40 * time.Millisecond
	eng.Transport = func() (pvm.Transport, error) { return tr, nil }
	if _, err := eng.Run(func(c Ctx) error { return c.Sync(tree.Root, "step") }); err != nil {
		t.Fatalf("Run = %v; the watchdog judged pids that run elsewhere", err)
	}
	if n := tr.proxied.Load(); n != 3 {
		t.Fatalf("%d stand-in tasks ran, want 3", n)
	}
}
