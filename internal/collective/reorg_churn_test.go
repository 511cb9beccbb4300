package collective

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Collective-layer coverage for dynamic reorganization and elastic
// membership (DESIGN.md §5.7): the fault-tolerant collectives keep
// their chaos-matrix contract while the tree is being rebalanced under
// them, and LiveShares renormalizes over the post-churn membership.
// The catalogue's collectives on a reorganized tree, and with cuts due
// inside them, are swept in property_sweep_test.go.

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
