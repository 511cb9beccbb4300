package collective

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"

	// Registers the "unix" and "tcp" wire transports so the conformance
	// matrix below picks them up from pvm.TransportFactories().
	_ "hbspk/internal/pvm/wiretrans"
)

// The cross-transport conformance suite: every chaos fate that holds for
// the in-proc fast path must hold verbatim when the concurrent engine's
// messages ride a real wire (unix socket or TCP loopback). The matrix is
// parameterized over pvm.TransportFactories(), so a transport registered
// tomorrow is conformance-tested automatically; the collective property
// sweep runs over the same list (property_sweep_test.go).

// conformanceEngine builds a concurrent engine wired to one registered
// transport. A nil factory New is the in-proc fast path.
func conformanceEngine(tf pvm.TransportFactory, tr *model.Tree) *hbsp.Concurrent {
	eng := hbsp.NewConcurrent(tr)
	if tf.New != nil {
		eng.Transport = tf.New
	}
	return eng
}

// TestTransportConformanceChaosMatrix re-runs the chaos matrix — every
// fault-tolerant collective under every fault class — over every
// registered transport. The contract is the in-proc one: a faulted run
// ends in a correct survivor-set result or a typed error, never a hang,
// never wrong data. Chaos fates are applied at engine flush time, above
// the transport seam, so drop/dup/delay behave identically on a socket.
func TestTransportConformanceChaosMatrix(t *testing.T) {
	for _, tf := range pvm.TransportFactories() {
		tf := tf
		for _, plan := range matrixPlans {
			for _, op := range matrixOps {
				name := fmt.Sprintf("%s/%s/%s", tf.Name, plan.name, op.name)
				t.Run(name, func(t *testing.T) {
					o := newOutcomes()
					eng := conformanceEngine(tf, model.UCFTestbedN(matrixP))
					eng.Chaos = plan.plan
					_, runErr := eng.Run(op.prog(o))
					checkCell(t, op.name, plan.victims, o, runErr)
				})
			}
		}
	}
}

// TestTransportCrashOutcomeIdentical pins the typed-failure contract
// across transports: a chaos crash of p2 at superstep 1 must surface to
// the survivors as ErrPeerFailed naming the same pid at the same sync
// generation whether the messages moved in-proc or over a socket.
func TestTransportCrashOutcomeIdentical(t *testing.T) {
	prog := func(c hbsp.Ctx) error {
		for s := 0; s < 3; s++ {
			c.Charge(10)
			if err := hbsp.SyncAll(c, fmt.Sprintf("step%d", s)); err != nil {
				return err
			}
		}
		return nil
	}
	type verdict struct{ pid, step int }
	var base *verdict
	for _, tf := range pvm.TransportFactories() {
		tf := tf
		t.Run(tf.Name, func(t *testing.T) {
			eng := conformanceEngine(tf, model.UCFTestbedN(4))
			eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 2, AtStep: 1}}}
			_, err := eng.Run(prog)
			var pf *hbsp.ErrPeerFailed
			if !errors.As(err, &pf) {
				t.Fatalf("transport %s: run error = %v, want ErrPeerFailed", tf.Name, err)
			}
			got := verdict{pf.Pid, pf.Step}
			if base == nil {
				base = &got
				if got.pid != 2 || got.step != 1 {
					t.Fatalf("transport %s: failure = p%d at step %d, want p2 at step 1", tf.Name, got.pid, got.step)
				}
				return
			}
			if got != *base {
				t.Fatalf("transport %s: failure = p%d at step %d, but %s saw p%d at step %d",
					tf.Name, got.pid, got.step, pvm.TransportFactories()[0].Name, base.pid, base.step)
			}
		})
	}
}

// TestTransportVirtualFingerprintUnaffected proves the Virtual engine
// is bit-identical with wire transports registered and exercised: its
// RunSchedules fingerprints — a hash of every delivery stream — match
// before and after concurrent runs over each wire transport. The
// Virtual engine never touches the transport seam, and this pins that.
func TestTransportVirtualFingerprintUnaffected(t *testing.T) {
	// Each round is a machine step and then a cluster step (the same step
	// again on the flat tree): on the grid sibling clusters deliver side
	// by side, and the fingerprint hashes which step each delivery was.
	prog := func(c hbsp.Ctx) error {
		pid, n := c.Pid(), c.NProcs()
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		mates := cluster.Pids()
		for s := 0; s < 3; s++ {
			if err := c.Send((pid+1+s)%n, s, []byte{byte(pid), byte(s), 0x7E}); err != nil {
				return err
			}
			if err := hbsp.SyncAll(c, fmt.Sprintf("fp%d", s)); err != nil {
				return err
			}
			if got := len(c.Moves()); got != 1 {
				return fmt.Errorf("p%d step %d: %d moves", pid, s, got)
			}
			mate := mates[(slices.Index(mates, pid)+1)%len(mates)]
			if err := c.Send(mate, 100+s, []byte{byte(pid), byte(s), 0x7F}); err != nil {
				return err
			}
			if err := c.Sync(cluster, fmt.Sprintf("fp%d local", s)); err != nil {
				return err
			}
			if got := len(c.Moves()); got != 1 {
				return fmt.Errorf("p%d cluster step %d: %d moves", pid, s, got)
			}
		}
		return nil
	}
	for _, tr := range []*model.Tree{model.UCFTestbedN(4), model.WideAreaGrid(2, 2, 10, 10, 100)} {
		fingerprint := func() uint64 {
			set, err := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel())).RunSchedules(prog, 4, 99)
			if err != nil {
				t.Fatalf("RunSchedules: %v", err)
			}
			if !set.Agree() {
				t.Fatalf("schedule permutations diverged: %s", set.Diff())
			}
			return set.Runs[0].Fingerprint
		}
		want := fingerprint()
		for _, tf := range pvm.TransportFactories() {
			if tf.New == nil {
				continue
			}
			eng := conformanceEngine(tf, tr)
			if _, err := eng.Run(prog); err != nil {
				t.Fatalf("concurrent run over %s: %v", tf.Name, err)
			}
			if got := fingerprint(); got != want {
				t.Fatalf("k=%d: virtual fingerprint drifted after %s run: %#x != %#x", tr.K(), tf.Name, got, want)
			}
		}
	}
}
