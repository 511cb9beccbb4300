package hbsp

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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
			_, err := runChaos(tr, fabric.PureModel(), plan, p)
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
					if errors.Is(err, errCrashStop) {
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
func gridLedger(reorgEvery int) (*elastic, *model.Machine, *model.Machine) {
	tr := model.WideAreaGrid(2, 3, 10, 10, 100)
	l := newElastic(tr, nil, reorgEvery, 7)
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
		name string
		dead []int
		acks []ack
		want map[int][2]map[int]bool // pid -> {acked on A, acked on B}
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
			name: "the dead neither give nor take",
			dead: []int{2},
			acks: []ack{{pid: 2, inB: true, peers: []int{4}}, {pid: 3, inB: true, peers: []int{5}}},
			want: map[int][2]map[int]bool{
				0: {nil, setOf(5)}, 1: {nil, setOf(5)}, 2: {nil, setOf(4)},
				3: {nil, setOf(5)}, 4: {nil, setOf(5)}, 5: {nil, setOf(5)},
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
			l, a, b := gridLedger(0)
			for _, pid := range tc.dead {
				l.kill(pid, 0, "crash-stop")
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
			l.equalize()
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

// Acks are keyed by the scope's *model.Machine, and the reorganizing
// cut equalizes them: a leaf the rebalance moves under the other cluster
// owes no notice its new peers consumed there before it arrived.
func TestLedgerAcksFollowMovedLeaf(t *testing.T) {
	l, _, b := gridLedger(1)
	l.kill(4, 0, "crash-stop")
	for _, pid := range []int{3, 5} {
		if n := l.deadNotice(pid, b); n == nil || n.Pid != 4 {
			t.Fatalf("p%d's notice on B = %v, want p4's death", pid, n)
		}
	}
	// Make p0 by far the slowest: the rebalance moves it under B.
	leaf := l.tree.Leaf(0)
	for pid := 0; pid < l.tree.NProcs(); pid++ {
		l.rer.Observe(pid, 1+1000*float64((6-pid)/6))
	}
	if err := l.cut(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if l.tree.Leaf(0) != leaf || !under(b, leaf) || !slices.Contains(b.Pids(), 4) {
		t.Fatalf("setup: B holds %v, want p0 beside p4", b.Pids())
	}
	for _, pid := range b.Pids() {
		if n := l.deadNotice(pid, b); pid != 4 && n != nil {
			t.Errorf("p%d owes a notice on B its peers consumed before the move: %v", pid, n)
		}
	}
}
