package hbsp

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// The one notice policy, on both engines: two members of a scope die
// before a survivor's next Sync on it, and every survivor consumes
// exactly two ErrPeerFailed — smallest victim first, Failed() growing
// by one per notice — before the barrier completes over the survivors.
func TestTwoDeathsTwoNoticesSmallestFirst(t *testing.T) {
	plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 3, AtStep: 0}, {Pid: 1, AtStep: 0}}}
	engines := map[string]func(*model.Tree, Program) error{
		"virtual": func(tr *model.Tree, p Program) error {
			_, err := RunVirtualChaos(tr, fabric.PureModel(), plan, p)
			return err
		},
		"concurrent": func(tr *model.Tree, p Program) error {
			eng := NewConcurrent(tr)
			eng.Chaos = plan
			_, err := eng.Run(p)
			return err
		},
	}
	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			// On Concurrent, survivors hold their first Sync until both
			// victims have died, so both deaths precede every survivor's
			// entry. Virtual's schedule fixes the order by itself (p0 is
			// told of p1 before p3 dies), and a program there may wait on
			// a peer only through Sync.
			hold := name == "concurrent"
			var bothDead sync.WaitGroup
			if hold {
				bothDead.Add(2)
			}
			err := run(model.UCFTestbedN(5), func(c Ctx) error {
				if hold && c.Pid() != 1 && c.Pid() != 3 {
					bothDead.Wait()
				}
				var notices []int
				for {
					err := SyncAll(c, "meet")
					if IsCrashStop(err) {
						if hold {
							bothDead.Done()
						}
						return err
					}
					var pf *ErrPeerFailed
					if !errors.As(err, &pf) {
						if err != nil {
							return err
						}
						break
					}
					notices = append(notices, pf.Pid)
					if got := len(c.Failed()); got != len(notices) {
						return fmt.Errorf("p%d Failed() has %d pids after %d notices", c.Pid(), got, len(notices))
					}
				}
				if !reflect.DeepEqual(notices, []int{1, 3}) {
					return fmt.Errorf("p%d notices = %v, want [1 3]", c.Pid(), notices)
				}
				return SyncAll(c, "after")
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gridLedger is a ledger over two clusters of three: A = {0,1,2},
// B = {3,4,5}.
func gridLedger(chaos *fabric.ChaosPlan, reorgEvery int) (*ledger, *model.Machine, *model.Machine) {
	tr := model.WideAreaGrid(2, 3, 10, 10, 100)
	l := newLedger(tr, chaos, nil, reorgEvery, 7)
	return l, tr.Root.Children[0], tr.Root.Children[1]
}

func setOf(pids ...int) map[int]bool {
	s := make(map[int]bool)
	for _, p := range pids {
		s[p] = true
	}
	return s
}

func TestLedgerEqualize(t *testing.T) {
	type ack struct {
		pid   int
		inB   bool
		peers []int
	}
	cases := []struct {
		name    string
		dead    []int
		dormant []int
		acks    []ack
		want    map[int][2]map[int]bool // pid -> {acked on A, acked on B}
	}{
		{
			name: "a leaf moving under a scope inherits its acked set",
			dead: []int{2},
			acks: []ack{{pid: 0, peers: []int{2}}, {pid: 1, peers: []int{2}}},
			want: map[int][2]map[int]bool{
				0: {setOf(2), nil}, 1: {setOf(2), nil}, 2: {nil, nil},
				3: {setOf(2), nil}, 4: {setOf(2), nil}, 5: {setOf(2), nil},
			},
		},
		{
			name:    "the dead neither give nor take, the dormant do not take",
			dead:    []int{2},
			dormant: []int{5},
			acks:    []ack{{pid: 2, inB: true, peers: []int{4}}, {pid: 3, inB: true, peers: []int{5}}},
			want: map[int][2]map[int]bool{
				0: {nil, setOf(5)}, 1: {nil, setOf(5)}, 2: {nil, setOf(4)},
				3: {nil, setOf(5)}, 4: {nil, setOf(5)}, 5: {nil, nil},
			},
		},
		{
			name: "sets of different scopes stay apart",
			acks: []ack{{pid: 0, peers: []int{1}}, {pid: 4, inB: true, peers: []int{3}}},
			want: map[int][2]map[int]bool{
				0: {setOf(1), setOf(3)}, 1: {setOf(1), setOf(3)}, 2: {setOf(1), setOf(3)},
				3: {setOf(1), setOf(3)}, 4: {setOf(1), setOf(3)}, 5: {setOf(1), setOf(3)},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, a, b := gridLedger(nil, 0)
			for _, pid := range tc.dead {
				l.kill(pid, 0, "crash-stop")
			}
			for _, pid := range tc.dormant {
				l.dormant[pid] = true
			}
			for _, k := range tc.acks {
				scope := a
				if k.inB {
					scope = b
				}
				for _, q := range k.peers {
					l.acked[k.pid].add(scope, q)
				}
			}
			l.equalize(l.acked)
			for pid, want := range tc.want {
				for i, scope := range []*model.Machine{a, b} {
					if got := l.acked[pid][scope]; len(got)+len(want[i]) > 0 && !reflect.DeepEqual(got, want[i]) {
						t.Errorf("p%d on %s: acked %v, want %v", pid, scope.Name, got, want[i])
					}
				}
			}
		})
	}
}

func TestLedgerSeedNewcomer(t *testing.T) {
	const cut = 4
	cases := []struct {
		name       string
		newcomer   int
		dead       []int
		dormant    []int
		sameCut    []int         // other newcomers activated at this cut
		ackedOnA   map[int][]int // old member -> dead it acked on cluster A
		joinsOnA   map[int][]int // old member -> joins it acked on cluster A
		wantDead   map[int]bool
		wantJoined map[int]bool
	}{
		{
			name:     "donor is the smallest live old member",
			newcomer: 2, dead: []int{0},
			ackedOnA: map[int][]int{0: {9}, 1: {0}}, joinsOnA: map[int][]int{1: {8}},
			wantDead: setOf(0), wantJoined: setOf(8),
		},
		{
			name:     "a newcomer of the same cut is no donor",
			newcomer: 2, sameCut: []int{0},
			ackedOnA: map[int][]int{0: {9}, 1: {7}},
			wantDead: setOf(7),
		},
		{
			name:     "no live old member seeds nothing",
			newcomer: 2, dead: []int{0}, dormant: []int{1},
			ackedOnA: map[int][]int{0: {9}, 1: {7}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, a, _ := gridLedger(nil, 0)
			for _, pid := range tc.dead {
				l.kill(pid, 0, "crash-stop")
			}
			for _, pid := range tc.dormant {
				l.dormant[pid] = true
			}
			for _, pid := range append(tc.sameCut, tc.newcomer) {
				l.joined[pid] = cut
			}
			for pid, ds := range tc.ackedOnA {
				for _, d := range ds {
					l.acked[pid].add(a, d)
				}
			}
			for pid, js := range tc.joinsOnA {
				for _, j := range js {
					l.ackedJoin[pid].add(a, j)
				}
			}
			l.seed(tc.newcomer, cut)
			if got := l.acked[tc.newcomer][a]; len(got)+len(tc.wantDead) > 0 && !reflect.DeepEqual(got, tc.wantDead) {
				t.Errorf("seeded dead acks on A = %v, want %v", got, tc.wantDead)
			}
			if got := l.ackedJoin[tc.newcomer][a]; len(got)+len(tc.wantJoined) > 0 && !reflect.DeepEqual(got, tc.wantJoined) {
				t.Errorf("seeded join acks on A = %v, want %v", got, tc.wantJoined)
			}
			// The newcomer's own leaf scope has no old member at all.
			leaf := l.tree.Leaf(tc.newcomer)
			if len(l.acked[tc.newcomer][leaf])+len(l.ackedJoin[tc.newcomer][leaf]) > 0 {
				t.Errorf("leaf scope seeded: %v %v", l.acked[tc.newcomer][leaf], l.ackedJoin[tc.newcomer][leaf])
			}
		})
	}
}

// Acks are keyed by the scope's *model.Machine: a join acknowledged on a
// leaf-level scope stays with that leaf when a reorganization moves it
// to another slot, where it gets another label.
func TestLedgerAcksFollowMovedLeaf(t *testing.T) {
	chaos := &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 0, JoinAt: 1}}}
	l, _, _ := gridLedger(chaos, 2)
	nothing := func() {}
	started := -1
	if err := l.cut(1, 0, 0, nothing, func(pid int) { started = pid }); err != nil || started != 0 {
		t.Fatalf("activation cut: started p%d, err %v", started, err)
	}
	leaf := l.tree.Leaf(0)
	if n := l.joinNotice(0, leaf); n == nil || n.Pid != 0 || n.Step != 1 {
		t.Fatalf("newcomer's own join notice on its leaf = %v", n)
	}

	// Make p0 by far the slowest: the rebalance moves it to the last slot.
	before := leaf.Label()
	for pid := 0; pid < l.tree.NProcs(); pid++ {
		l.rer.Observe(pid, 1+1000*float64((6-pid)/6))
	}
	if err := l.cut(2, 0, 0, nothing, func(int) {}); err != nil {
		t.Fatal(err)
	}
	if leaf.Label() == before || l.tree.Leaf(0) != leaf {
		t.Fatalf("setup: leaf of p0 still %s, pid->leaf %v", leaf.Label(), l.tree.Leaf(0) == leaf)
	}
	if n := l.joinNotice(0, leaf); n != nil {
		t.Errorf("moved leaf owes its consumed notice again: %v", n)
	}
	l.tree.Root.Walk(func(m *model.Machine) {
		if m.Label() == before && len(l.ackedJoin[0][m]) > 0 {
			t.Errorf("the ack stayed with label %s, now %s: %v", before, m.Name, l.ackedJoin[0][m])
		}
	})
}
