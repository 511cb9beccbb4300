package collective

import (
	"errors"
	"fmt"
	"math/rand"
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

// The cross-transport conformance suite: every collective property and
// every chaos fate that holds for the in-proc fast path must hold
// verbatim when the concurrent engine's messages ride a real wire
// (unix socket or TCP loopback). The matrix is parameterized over
// pvm.TransportFactories(), so a transport registered tomorrow is
// conformance-tested automatically.

// conformanceEngine builds a concurrent engine wired to one registered
// transport. A nil factory New is the in-proc fast path.
func conformanceEngine(tf pvm.TransportFactory, tr *model.Tree) *hbsp.Concurrent {
	eng := hbsp.NewConcurrent(tr)
	if tf.New != nil {
		eng.Transport = tf.New
	}
	return eng
}

// TestTransportConformanceSweep runs the full collective property sweep
// (random trees, random roots/ops/widths, sequential oracles) over
// every registered transport. Wire transports run fewer iterations —
// each engine run stands up a real socket pair — but the same oracle
// checks apply bit for bit. Failures lead with the seed.
func TestTransportConformanceSweep(t *testing.T) {
	const baseSeed = int64(0xFAB41C)
	for _, tf := range pvm.TransportFactories() {
		tf := tf
		iters := 3
		if tf.New != nil {
			iters = 2 // socket setup per engine run; keep the wire lanes lean
		}
		if testing.Short() {
			iters = 1
		}
		for it := 0; it < iters; it++ {
			seed := baseSeed + int64(it)*7919
			t.Run(fmt.Sprintf("%s/it%d", tf.Name, it), func(t *testing.T) {
				env := newSweepEnv(seed)
				t.Logf("seed=%d transport=%s tree=%s p=%d root=%d op=%s width=%d",
					seed, tf.Name, env.tr.Root.Name, env.p, env.root, env.op.Name, env.width)
				for _, tc := range sweepCases() {
					s := newSlots(env.p)
					eng := conformanceEngine(tf, env.tr)
					if _, err := eng.Run(func(c hbsp.Ctx) error {
						return tc.run(c, env, s)
					}); err != nil {
						t.Errorf("seed=%d transport=%s %s: run failed: %v", seed, tf.Name, tc.name, err)
						continue
					}
					tc.check(t, env, s)
				}
			})
		}
	}
}

// ftSweepCases are the fault-tolerant collectives over the whole machine,
// fault-free, against the oracles of the plain ones. Their coordinator is
// the fastest leaf: every member is live.
func ftSweepCases() []sweepCase {
	coord := func(env *sweepEnv) int { return env.tr.Pid(env.tr.FastestLeaf()) }
	return []sweepCase{
		{
			name: "ft-gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, _, err := NewFT(c, c.Tree().Root).Gather(env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				checkMap(t, env, "ft-gather", coord(env), s.ms[coord(env)], env.gatherOracle())
			},
		},
		{
			name: "ft-bcast",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Pid() == env.root {
					in = env.payloads[env.root]
				}
				out, err := NewFT(c, c.Tree().Root).Bcast(env.root, in)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "ft-bcast", pid, s.bs[pid], env.payloads[env.root])
				}
			},
		},
		{
			name: "ft-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, _, err := NewFT(c, c.Tree().Root).Reduce(env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				checkVec(t, env, "ft-reduce", coord(env), s.vs[coord(env)], env.fold(env.allPids()))
			},
		},
		{
			name: "ft-all-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := NewFT(c, c.Tree().Root).AllReduce(env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "ft-all-reduce", pid, s.vs[pid], env.fold(env.allPids()))
				}
			},
		},
	}
}

// churn runs three all-to-all supersteps of fresh random payloads: enough
// for every window a collective was delivered in to be retired (under
// Verify, poisoned) and its wires and frames to carry other bytes.
func churn(c hbsp.Ctx, seed int64) error {
	rng := rand.New(rand.NewSource(seed + int64(c.Pid())))
	for step := 0; step < 3; step++ {
		for dst := 0; dst < c.NProcs(); dst++ {
			p := make([]byte, 1+rng.Intn(512))
			rng.Read(p)
			if err := c.Send(dst, 0, p); err != nil {
				return err
			}
		}
		if err := hbsp.SyncAll(c, "churn"); err != nil {
			return err
		}
	}
	return nil
}

// TestCollectiveResultsOutliveTheirFrames holds every collective of the
// property sweep, the planned and fault-tolerant ones included, to owning
// its result's bytes: a delivered payload lives two Syncs, so each result
// is compared with its sequential oracle only after churn, on Concurrent
// under Verify, in-proc and over a unix socket. Three random trees have
// p ≥ 8, so the binomial broadcast forwards through three rounds or more,
// but k ≤ 3. The fourth tree, DeepChain(4), has k = 4: there a
// coordinator keeps a piece of the hierarchical exchange across two
// levels, past the window it was delivered in.
func TestCollectiveResultsOutliveTheirFrames(t *testing.T) {
	var envs []*sweepEnv
	seed := int64(0x11FE)
	for ; len(envs) < 3; seed++ {
		if env := newSweepEnv(seed); env.p >= 8 {
			envs = append(envs, env)
		}
	}
	envs = append(envs, sweepEnvOn(seed, rand.New(rand.NewSource(seed)), model.DeepChain(4)))
	cases := append(sweepCases(), ftSweepCases()...)
	for _, tf := range pvm.TransportFactories() {
		if tf.Name != "inproc" && tf.Name != "unix" {
			continue
		}
		for i, env := range envs {
			t.Run(fmt.Sprintf("%s/tree%d", tf.Name, i), func(t *testing.T) {
				t.Logf("seed=%d tree=%s p=%d k=%d", env.seed, env.tr.Root.Name, env.p, env.tr.K())
				for _, tc := range cases {
					s := newSlots(env.p)
					eng := conformanceEngine(tf, env.tr)
					eng.Verify = true
					if _, err := eng.Run(func(c hbsp.Ctx) error {
						if err := tc.run(c, env, s); err != nil {
							return err
						}
						return churn(c, env.seed)
					}); err != nil {
						t.Errorf("seed=%d %s: run failed: %v", env.seed, tc.name, err)
						continue
					}
					tc.check(t, env, s)
				}
			})
		}
	}
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
