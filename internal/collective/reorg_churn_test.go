package collective

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Collective-layer coverage for dynamic reorganization and elastic
// membership (DESIGN.md §5.7): the fault-tolerant collectives keep
// their chaos-matrix contract while the tree is being rebalanced under
// them, every collective in the library stays oracle-correct on a
// reorganized tree, and LiveShares renormalizes over the post-churn
// membership.

// reorgMatrixEngines mirror matrixEngines with barrier-time
// reorganization enabled: the tree is rebalanced every second global
// barrier while the fault-tolerant collective runs.
var reorgMatrixEngines = []struct {
	name string
	run  func(plan *fabric.ChaosPlan, prog hbsp.Program) error
}{
	{"virtual", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		tr := model.UCFTestbedN(matrixP)
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = plan
		eng.ReorgEvery = 2
		eng.ReorgSeed = 9
		_, err := eng.Run(prog)
		return err
	}},
	{"concurrent", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		eng := hbsp.NewConcurrent(model.UCFTestbedN(matrixP))
		eng.Chaos = plan
		eng.ReorgEvery = 2
		eng.ReorgSeed = 9
		_, err := eng.Run(prog)
		return err
	}},
}

// TestChaosMatrixUnderReorg re-runs the chaos matrix with the tree
// rebalancing under the collectives. The contract is unchanged: correct
// survivor-set data or a typed error, never a deadlock, never
// corruption — a crash landing inside a reorganization epoch included.
func TestChaosMatrixUnderReorg(t *testing.T) {
	keep := map[string]bool{
		"none": true, "crash-member": true,
		"crash-coordinator": true, "straggler-noise": true,
	}
	for _, eng := range reorgMatrixEngines {
		for _, plan := range matrixPlans {
			if !keep[plan.name] {
				continue
			}
			for _, op := range matrixOps {
				name := fmt.Sprintf("%s/%s/%s", eng.name, plan.name, op.name)
				t.Run(name, func(t *testing.T) {
					o := newOutcomes()
					runErr := eng.run(plan.plan, op.prog(o))
					checkCell(t, op.name, plan.victims, o, runErr)
				})
			}
		}
	}
}

// slotPidsOf returns leaf pids in slot (child) order — the structural
// layout a reorganization permutes.
func slotPidsOf(tr *model.Tree) []int {
	var out []int
	var walk func(m *model.Machine)
	walk = func(m *model.Machine) {
		if m.IsLeaf() {
			out = append(out, tr.Pid(m))
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	return out
}

// shapeSig fingerprints the tree's topology shape: child counts in
// depth-first order. Reorganization must never change it.
func shapeSig(tr *model.Tree) []int {
	var sig []int
	var walk func(m *model.Machine)
	walk = func(m *model.Machine) {
		sig = append(sig, len(m.Children))
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	return sig
}

// TestSweepOnReorganizedTrees is the engine-level half of the reorg
// property test: random trees are rebalanced under randomly skewed
// speed estimates, the shape and leaf multiset are checked invariant,
// and then every collective in the library must still match the
// sequential oracle on both engines.
func TestSweepOnReorganizedTrees(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 1
	}
	engines := []struct {
		name string
		run  func(tr *model.Tree, p hbsp.Program) error
	}{
		{"virtual", func(tr *model.Tree, p hbsp.Program) error {
			_, err := hbsp.RunVirtual(tr, fabric.PureModel(), p)
			return err
		}},
		{"concurrent", func(tr *model.Tree, p hbsp.Program) error {
			_, err := hbsp.NewConcurrent(tr).Run(p)
			return err
		}},
	}
	const baseSeed = int64(0xD1CE)
	moved := 0
	for it := 0; it < iters; it++ {
		seed := baseSeed + int64(it)*7919
		env := newSweepEnv(seed)
		shapeBefore := shapeSig(env.tr)

		// Skew the estimates at random and rebalance in place.
		rng := rand.New(rand.NewSource(seed ^ 0x5EED))
		rer := model.NewReranker(env.p)
		for pid := 0; pid < env.p; pid++ {
			for n := 0; n < 3; n++ {
				rer.Observe(pid, 0.1+rng.Float64()*10)
			}
		}
		plan := model.PlanReorg(env.tr, rer.Estimates(), seed, 1)
		if err := env.tr.Reorganize(plan); err != nil {
			t.Fatalf("seed=%d: Reorganize: %v", seed, err)
		}
		moved += plan.Moved

		if got := shapeSig(env.tr); !reflect.DeepEqual(got, shapeBefore) {
			t.Fatalf("seed=%d: reorg changed the topology shape: %v -> %v", seed, shapeBefore, got)
		}
		pids := slotPidsOf(env.tr)
		sort.Ints(pids)
		if !reflect.DeepEqual(pids, env.allPids()) {
			t.Fatalf("seed=%d: reorg lost or duplicated leaves: %v", seed, pids)
		}

		for _, eng := range engines {
			eng := eng
			t.Run(fmt.Sprintf("it%d/%s", it, eng.name), func(t *testing.T) {
				for _, tc := range sweepCases() {
					s := newSlots(env.p)
					if err := eng.run(env.tr, func(c hbsp.Ctx) error {
						return tc.run(c, env, s)
					}); err != nil {
						t.Errorf("seed=%d %s on reorganized tree: run failed: %v", seed, tc.name, err)
						continue
					}
					tc.check(t, env, s)
				}
			})
		}
	}
	if moved == 0 {
		t.Error("no seed produced a single moved leaf; the skew is not exercising reorg")
	}
}

// midRunCases are the hierarchical families of the sweep and the four
// fault-tolerant collectives: every call whose coordinators depend on
// the layout across several global barriers.
func midRunCases() []sweepCase {
	var cases []sweepCase
	for _, tc := range sweepCases() {
		if strings.HasSuffix(tc.name, "-hier") || tc.name == "all-reduce" {
			cases = append(cases, tc)
		}
	}
	return append(cases,
		sweepCase{
			name: "ft-gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, coord, err := NewFT(c, c.Tree().Root).Gather(env.payloads[c.Pid()])
				if c.Pid() != coord {
					out = nil
				}
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				held := 0
				for pid := 0; pid < env.p; pid++ {
					if s.ms[pid] != nil {
						held++
						checkMap(t, env, "ft-gather", pid, s.ms[pid], env.gatherOracle())
					}
				}
				if held != 1 {
					t.Errorf("seed=%d ft-gather: %d coordinators hold the result, want 1", env.seed, held)
				}
			},
		},
		sweepCase{
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
		sweepCase{
			name: "ft-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, coord, err := NewFT(c, c.Tree().Root).Reduce(env.vecs[c.Pid()], env.op)
				if c.Pid() != coord {
					out = nil
				}
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				held := 0
				for pid := 0; pid < env.p; pid++ {
					if s.vs[pid] != nil {
						held++
						checkVec(t, env, "ft-reduce", pid, s.vs[pid], env.fold(env.allPids()))
					}
				}
				if held != 1 {
					t.Errorf("seed=%d ft-reduce: %d coordinators hold the result, want 1", env.seed, held)
				}
			},
		},
		sweepCase{
			name: "ft-allreduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := NewFT(c, c.Tree().Root).AllReduce(env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				want := env.fold(env.allPids())
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "ft-allreduce", pid, s.vs[pid], want)
				}
			},
		})
}

// TestSweepWithCutsDueMidCollective is the reorg sweep's lane for a cut
// that falls due at a global barrier inside a collective: on Figure 1's
// tree, with the fastest leaf straggling tenfold and ReorgEvery 1 and 2,
// on both engines, each case runs three rounds behind a charged global
// Sync — the barrier outside every collective where the owed cut lands,
// so the tree does move between rounds. The last round ran on the final
// layout, and its result must match the sequential oracle there.
func TestSweepWithCutsDueMidCollective(t *testing.T) {
	const seed = int64(0xC07)
	straggler := &fabric.ChaosPlan{Seed: seed, Stragglers: []fabric.Straggler{
		{Pid: 0, FromStep: 0, ToStep: 1 << 20, Factor: 10},
	}}
	for _, engine := range []string{"virtual", "concurrent"} {
		for _, every := range []int{1, 2} {
			for _, tc := range midRunCases() {
				t.Run(fmt.Sprintf("%s/every%d/%s", engine, every, tc.name), func(t *testing.T) {
					tr := model.Figure1Cluster()
					env := sweepEnvOn(seed, rand.New(rand.NewSource(seed)), tr)
					before := slotPidsOf(tr)
					s := newSlots(env.p)
					prog := func(c hbsp.Ctx) error {
						for r := 0; r < 3; r++ {
							c.Charge(1000)
							if err := hbsp.SyncAll(c, "round"); err != nil {
								return err
							}
							if err := tc.run(c, env, s); err != nil {
								return err
							}
						}
						return nil
					}
					var err error
					if engine == "virtual" {
						eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
						eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = straggler, every, seed
						_, err = eng.Run(prog)
					} else {
						eng := hbsp.NewConcurrent(tr)
						eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = straggler, every, seed
						_, err = eng.Run(prog)
					}
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					if reflect.DeepEqual(slotPidsOf(tr), before) {
						t.Fatalf("the layout never moved: the lane is not exercising a cut")
					}
					tc.check(t, env, s)
				})
			}
		}
	}
}

// TestLiveSharesAfterChurn checks the degraded-mode partition weights
// against the oracle once membership has churned: a late joiner holds a
// share, an orderly leaver does not, the weights sum to 1, and the
// survivor ratios match the tree's balanced shares.
func TestLiveSharesAfterChurn(t *testing.T) {
	const lsCtl = 31
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(4)
			plan := &fabric.ChaosPlan{Churns: []fabric.Churn{
				{Pid: 3, JoinAt: 2},
				{Pid: 2, LeaveAt: 4},
			}}
			var mu sync.Mutex
			shares := map[int]map[int]float64{}

			prog := func(c hbsp.Ctx) error {
				root := c.Tree().Root
				const rounds = 6
				stop := false
				for round := 0; !stop; round++ {
					for { // absorb membership notices, re-send, retry
						failed := map[int]bool{}
						for _, f := range c.Failed() {
							failed[f] = true
						}
						if c.Pid() == 0 {
							flag := byte(0)
							if round >= rounds-1 {
								flag = 1
							}
							for _, m := range c.Members() {
								if m != 0 && !failed[m] {
									if err := c.Send(m, lsCtl, []byte{flag}); err != nil {
										return err
									}
								}
							}
						}
						err := c.Sync(root, "tick")
						if err == nil {
							break
						}
						var pj *hbsp.ErrPeerJoined
						var pf *hbsp.ErrPeerFailed
						if !errors.As(err, &pj) && !errors.As(err, &pf) {
							return err
						}
					}
					for _, m := range c.Moves() {
						if m.Src == 0 && m.Tag == lsCtl {
							stop = m.Payload[0] == 1
						}
					}
					if c.Pid() == 0 {
						stop = round >= rounds-1
					}
				}
				failed := map[int]bool{}
				for _, f := range c.Failed() {
					failed[f] = true
				}
				var live []int
				for _, m := range c.Members() {
					if !failed[m] {
						live = append(live, m)
					}
				}
				mu.Lock()
				shares[c.Pid()] = LiveShares(c, root, live)
				mu.Unlock()
				return nil
			}

			var err error
			if engine == "virtual" {
				eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Chaos = plan
				_, err = eng.Run(prog)
			} else {
				eng := hbsp.NewConcurrent(tr)
				eng.Chaos = plan
				_, err = eng.Run(prog)
			}
			if err != nil {
				t.Fatalf("churn run: %v", err)
			}

			got := shares[0]
			if got == nil {
				t.Fatal("coordinator recorded no shares")
			}
			if _, hasLeaver := got[2]; hasLeaver {
				t.Errorf("departed p2 still holds a share: %v", got)
			}
			if _, hasJoiner := got[3]; !hasJoiner {
				t.Errorf("joiner p3 holds no share: %v", got)
			}
			total := 0.0
			for _, s := range got {
				total += s
			}
			if total < 0.999 || total > 1.001 {
				t.Errorf("live shares sum to %v, want 1", total)
			}
			// Oracle: the tree's balanced shares renormalized over {0,1,3}.
			den := 0.0
			for _, pid := range []int{0, 1, 3} {
				den += tr.Leaf(pid).Share
			}
			for _, pid := range []int{0, 1, 3} {
				want := tr.Leaf(pid).Share / den
				if d := got[pid] - want; d < -1e-9 || d > 1e-9 {
					t.Errorf("p%d live share = %v, want renormalized %v", pid, got[pid], want)
				}
			}
			// Every finisher agrees on the weights.
			for pid, m := range shares {
				if !reflect.DeepEqual(m, got) && pid != 2 {
					t.Errorf("p%d shares %v diverge from coordinator's %v", pid, m, got)
				}
			}
		})
	}
}
