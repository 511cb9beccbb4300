package hbsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
)

// The elastic-membership and reorganization contract, checked on both
// engines: late joins surface to every scope member — the newcomer
// included — as a typed ErrPeerJoined exactly once per scope per join
// batch; orderly leaves surface as ErrPeerFailed with cause "leave";
// barrier-time rebalancing permutes leaf slots without breaking barrier
// alignment; and identical seeds produce identical reorg schedules.

const (
	ctlTag   = 7 // coordinator -> members: stop flag
	dataTag  = 8 // members -> coordinator: fold contribution
	earlyTag = 9 // message sent to a still-dormant processor
)

// churnObs collects per-processor observations from a churn-tolerant
// program, for assertions after the run.
type churnObs struct {
	mu      sync.Mutex
	joins   map[int]int    // pid -> join notices absorbed
	fails   map[int]int    // pid -> failure notices absorbed
	members map[int][]int  // pid -> final Members()
	failed  map[int][]int  // pid -> final Failed()
	sums    map[int]int64  // pid -> final fold value
	rounds  map[int]int    // pid -> rounds completed
	early   map[int]string // pid -> payload received under earlyTag
	saved   map[int]uint64 // pid -> last committed checkpoint value
	exit    map[int]error  // pid -> error the program unwound with
}

func newChurnObs() *churnObs {
	return &churnObs{
		joins: map[int]int{}, fails: map[int]int{},
		members: map[int][]int{}, failed: map[int][]int{},
		sums: map[int]int64{}, rounds: map[int]int{},
		early: map[int]string{}, saved: map[int]uint64{},
		exit: map[int]error{},
	}
}

func (o *churnObs) noteJoin(pid int) { o.mu.Lock(); o.joins[pid]++; o.mu.Unlock() }
func (o *churnObs) noteFail(pid int) { o.mu.Lock(); o.fails[pid]++; o.mu.Unlock() }

func (o *churnObs) finish(c Ctx, sum int64, rounds int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.members[c.Pid()] = c.Members()
	o.failed[c.Pid()] = c.Failed()
	o.sums[c.Pid()] = sum
	o.rounds[c.Pid()] = rounds
}

// churnCfg tunes churnProg.
type churnCfg struct {
	rounds int
	work   float64
	early  bool // coordinator sends one pre-activation message to earlyTo
	save   bool // checkpoint a per-pid accumulator every round
	ckptEv int  // engine CheckpointEvery when save is set (for commit tracking)
}

// churnProg builds a self-synchronizing iterative workload: processor 0
// coordinates termination by broadcasting a stop flag each round while
// the other members fold data back. Membership notices — ErrPeerFailed
// and ErrPeerJoined — are absorbed by re-sending and retrying the
// barrier, so the loop survives crash-stops, orderly leaves and late
// joins. A newcomer does not know the current round number; it obeys
// the coordinator's stop flag, which is what makes the loop
// self-synchronizing under churn.
func churnProg(cfg churnCfg, obs *churnObs) Program {
	return func(c Ctx) (retErr error) {
		defer func() {
			if retErr != nil {
				obs.mu.Lock()
				obs.exit[c.Pid()] = retErr
				obs.mu.Unlock()
			}
		}()
		root := c.Tree().Root
		var sum int64
		var acc uint64
		done := 0
		stop := false
		if cfg.early && c.Pid() == 0 {
			if err := c.Send(3, earlyTag, []byte("before-activation")); err != nil {
				return err
			}
		}
		for round := 0; !stop; round++ {
			for { // retry loop: one iteration per absorbed notice
				failed := map[int]bool{}
				for _, f := range c.Failed() {
					failed[f] = true
				}
				if c.Pid() == 0 {
					flag := byte(0)
					if round >= cfg.rounds-1 {
						flag = 1
					}
					for _, m := range c.Members() {
						if m != 0 && !failed[m] {
							if err := c.Send(m, ctlTag, []byte{flag}); err != nil {
								return err
							}
						}
					}
				} else {
					if err := c.Send(0, dataTag, []byte{byte(c.Pid())}); err != nil {
						return err
					}
				}
				if cfg.save {
					acc += uint64(c.Pid()*1000 + done)
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], acc)
					c.Save("acc", b[:])
				}
				c.Charge(cfg.work * float64(1+c.Pid()%3))
				err := c.Sync(root, "round")
				if err == nil {
					break
				}
				var pj *ErrPeerJoined
				var pf *ErrPeerFailed
				switch {
				case errors.As(err, &pj):
					obs.noteJoin(c.Pid())
				case errors.As(err, &pf):
					obs.noteFail(c.Pid())
				default:
					return err
				}
			}
			if cfg.save && cfg.ckptEv == 1 {
				// CheckpointEvery=1 commits the staged save at the barrier
				// that just completed.
				obs.mu.Lock()
				obs.saved[c.Pid()] = acc
				obs.mu.Unlock()
			}
			for _, m := range c.Moves() {
				switch {
				case c.Pid() == 0 && m.Tag == dataTag:
					sum += int64(m.Payload[0]) + int64(round)
				case m.Src == 0 && m.Tag == ctlTag:
					stop = m.Payload[0] == 1
				case m.Tag == earlyTag:
					obs.mu.Lock()
					obs.early[c.Pid()] = string(m.Payload)
					obs.mu.Unlock()
				}
			}
			if c.Pid() == 0 {
				stop = round >= cfg.rounds-1
			}
			done++
		}
		obs.finish(c, sum, done)
		return nil
	}
}

// leafPids returns the tree's leaf pids in slot (child) order — the
// structural layout a reorganization permutes. Tree.Leaves() is
// pid-indexed and deliberately stable across reorgs, so it cannot
// observe the permutation.
func leafPids(tr *model.Tree) []int {
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

func runElasticVirtual(t *testing.T, tr *model.Tree, plan *fabric.ChaosPlan, every int, seed int64, prog Program) error {
	t.Helper()
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = plan
	eng.ReorgEvery = every
	eng.ReorgSeed = seed
	_, err := eng.Run(prog)
	return err
}

func runElasticConcurrent(t *testing.T, tr *model.Tree, plan *fabric.ChaosPlan, every int, seed int64, prog Program) error {
	t.Helper()
	eng := NewConcurrent(tr)
	eng.Chaos = plan
	eng.ReorgEvery = every
	eng.ReorgSeed = seed
	_, err := eng.Run(prog)
	return err
}

// Every member of the root scope — the newcomer included — must absorb
// the join notice exactly once, and every final membership view must
// include the whole batch.
func checkJoinSymmetry(t *testing.T, obs *churnObs, allPids []int, engine string) {
	t.Helper()
	obs.mu.Lock()
	defer obs.mu.Unlock()
	for _, pid := range allPids {
		if got := obs.joins[pid]; got != 1 {
			t.Errorf("%s: p%d absorbed %d join notices, want exactly 1", engine, pid, got)
		}
		if got := obs.members[pid]; !reflect.DeepEqual(got, allPids) {
			t.Errorf("%s: p%d final Members() = %v, want %v", engine, pid, got, allPids)
		}
	}
}

func TestJoinNoticeSymmetricVirtual(t *testing.T) {
	tr := model.UCFTestbedN(4)
	plan := &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 3, JoinAt: 2}}}
	obs := newChurnObs()
	if err := runElasticVirtual(t, tr, plan, 0, 0, churnProg(churnCfg{rounds: 6, work: 1}, obs)); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkJoinSymmetry(t, obs, []int{0, 1, 2, 3}, "virtual")
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.rounds[3] == 0 || obs.rounds[3] >= obs.rounds[1] {
		t.Errorf("joiner completed %d rounds, want in [1, %d)", obs.rounds[3], obs.rounds[1])
	}
	// Rounds 0..5 from p1 (pid+round) and p2; the joiner activates after
	// two completed global barriers, so it contributes rounds 2..5.
	want := int64(0)
	for r := 0; r < 6; r++ {
		want += int64(1+r) + int64(2+r)
		if r >= 2 {
			want += int64(3 + r)
		}
	}
	if obs.sums[0] != want {
		t.Errorf("coordinator fold = %d, want %d", obs.sums[0], want)
	}
}

func TestJoinNoticeSymmetricConcurrent(t *testing.T) {
	tr := model.UCFTestbedN(4)
	plan := &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 3, JoinAt: 2}}}
	obs := newChurnObs()
	if err := runElasticConcurrent(t, tr, plan, 0, 0, churnProg(churnCfg{rounds: 6, work: 1}, obs)); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkJoinSymmetry(t, obs, []int{0, 1, 2, 3}, "concurrent")
	obs.mu.Lock()
	defer obs.mu.Unlock()
	want := int64(0)
	for r := 0; r < 6; r++ {
		want += int64(1+r) + int64(2+r)
		if r >= 2 {
			want += int64(3 + r)
		}
	}
	if obs.sums[0] != want {
		t.Errorf("coordinator fold = %d, want %d (virtual and concurrent must agree)", obs.sums[0], want)
	}
}

// A message sent to a processor that has not activated yet is held and
// delivered at the first shared superstep after its activation, on both
// engines.
func TestMessageToDormantHeldUntilActivation(t *testing.T) {
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(4)
			plan := &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 3, JoinAt: 2}}}
			obs := newChurnObs()
			prog := churnProg(churnCfg{rounds: 6, work: 1, early: true}, obs)
			var err error
			if engine == "virtual" {
				err = runElasticVirtual(t, tr, plan, 0, 0, prog)
			} else {
				err = runElasticConcurrent(t, tr, plan, 0, 0, prog)
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			obs.mu.Lock()
			defer obs.mu.Unlock()
			if got := obs.early[3]; got != "before-activation" {
				t.Errorf("joiner received %q under earlyTag, want the held pre-activation message", got)
			}
		})
	}
}

// An orderly leave surfaces to survivors as ErrPeerFailed with cause
// "leave" and to the leaver itself as an IsLeave error; the run
// completes over the remaining members.
func TestLeaveOrderly(t *testing.T) {
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(4)
			plan := &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 2, LeaveAt: 3}}}
			obs := newChurnObs()
			prog := churnProg(churnCfg{rounds: 6, work: 1}, obs)
			var err error
			if engine == "virtual" {
				err = runElasticVirtual(t, tr, plan, 0, 0, prog)
			} else {
				err = runElasticConcurrent(t, tr, plan, 0, 0, prog)
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			obs.mu.Lock()
			defer obs.mu.Unlock()
			if !IsLeave(obs.exit[2]) {
				t.Errorf("leaver unwound with %v, want an IsLeave error", obs.exit[2])
			}
			for _, pid := range []int{0, 1, 3} {
				if got := obs.fails[pid]; got != 1 {
					t.Errorf("survivor p%d absorbed %d failure notices, want 1", pid, got)
				}
				if got := obs.failed[pid]; !reflect.DeepEqual(got, []int{2}) {
					t.Errorf("survivor p%d Failed() = %v, want [2]", pid, got)
				}
				if _, finished := obs.members[pid]; !finished {
					t.Errorf("survivor p%d did not finish", pid)
				}
			}
		})
	}
}

// A crash-stop landing inside a reorganization epoch still surfaces to
// every survivor at the same barrier generation: everyone absorbs
// exactly one notice and the run completes on the rebalanced tree.
func TestCrashInsideReorgEpoch(t *testing.T) {
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(6)
			plan := &fabric.ChaosPlan{
				Crashes:    []fabric.Crash{{Pid: 4, AtStep: 4}},
				Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 20, Factor: 6}},
			}
			obs := newChurnObs()
			prog := churnProg(churnCfg{rounds: 9, work: 1}, obs)
			var err error
			if engine == "virtual" {
				err = runElasticVirtual(t, tr, plan, 3, 42, prog)
			} else {
				err = runElasticConcurrent(t, tr, plan, 3, 42, prog)
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			obs.mu.Lock()
			defer obs.mu.Unlock()
			for _, pid := range []int{0, 1, 2, 3, 5} {
				if got := obs.fails[pid]; got != 1 {
					t.Errorf("survivor p%d absorbed %d failure notices, want 1", pid, got)
				}
				if got := obs.failed[pid]; !reflect.DeepEqual(got, []int{4}) {
					t.Errorf("survivor p%d Failed() = %v, want [4]", pid, got)
				}
			}
		})
	}
}

// Sustained stragglers must change the ranking: the rebalanced leaf
// order differs from the static one, and equal seeds reproduce the
// exact same schedule (reports and final layout).
func TestReorgRebalancesAndIsDeterministic(t *testing.T) {
	tr := model.UCFTestbedN(8)
	before := leafPids(tr)
	layout := tr.SaveLayout()
	plan := &fabric.ChaosPlan{
		Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 40, Factor: 10}},
	}
	run := func() (*churnObs, []int, error) {
		tr.RestoreLayout(layout)
		obs := newChurnObs()
		err := runElasticVirtual(t, tr, plan, 2, 42, churnProg(churnCfg{rounds: 10, work: 2}, obs))
		return obs, leafPids(tr), err
	}
	obs1, after1, err := run()
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if reflect.DeepEqual(before, after1) {
		t.Errorf("leaf order unchanged by reorg under a 10x straggler on the fastest leaf: %v", after1)
	}
	obs2, after2, err := run()
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !reflect.DeepEqual(after1, after2) {
		t.Errorf("same seed, different final layouts: %v vs %v", after1, after2)
	}
	if obs1.sums[0] != obs2.sums[0] {
		t.Errorf("same seed, different folds: %d vs %d", obs1.sums[0], obs2.sums[0])
	}
	tr.RestoreLayout(layout)
}

// A reorganization due at a global barrier inside a collective waits for
// the first global barrier outside one: with ReorgEvery 1 every barrier
// cuts, yet inside a Span the layout holds still across two of them;
// each deferral is a "reorg-deferred" event, and the owed cut lands at
// the next barrier outside.
func TestReorgWaitsOutASpan(t *testing.T) {
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(8)
			before := leafPids(tr)
			plan := &fabric.ChaosPlan{
				Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 1 << 20, Factor: 10}},
			}
			rec := obsv.New(obsv.Config{})
			prog := func(c Ctx) error {
				for r := 0; r < 4; r++ {
					c.Charge(2)
					if err := SyncAll(c, "outside"); err != nil {
						return err
					}
					done := Span(c, "two-barrier collective")
					layout := leafPids(c.Tree())
					for i := 0; i < 2; i++ {
						if err := SyncAll(c, "inside"); err != nil {
							return err
						}
						if got := leafPids(c.Tree()); !reflect.DeepEqual(got, layout) {
							return fmt.Errorf("p%d round %d: the layout moved inside the span: %v -> %v", c.Pid(), r, layout, got)
						}
					}
					done(0)
				}
				return nil
			}
			var err error
			if engine == "virtual" {
				eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Chaos, eng.ReorgEvery, eng.ReorgSeed, eng.Obsv = plan, 1, 42, rec
				_, err = eng.Run(prog)
			} else {
				eng := NewConcurrent(tr)
				eng.Chaos, eng.ReorgEvery, eng.ReorgSeed, eng.Obsv = plan, 1, 42, rec
				_, err = eng.Run(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			reorgs := map[string]int{}
			for _, e := range rec.Events() {
				if e.Kind == obsv.KindReorg {
					reorgs[e.Name]++
				}
			}
			// Four rounds of three global barriers: the four outside cut,
			// the eight inside defer.
			if reorgs["reorg"] != 4 || reorgs["reorg-deferred"] != 8 {
				t.Errorf("reorg events %v, want 4 applied and 8 deferred", reorgs)
			}
			if reflect.DeepEqual(leafPids(tr), before) {
				t.Errorf("the layout never moved: no cut was applied")
			}
		})
	}
}

// Both engines must agree on the reorganization schedule: the same
// chaos plan and seed produce the same final leaf order and the same
// fold, starting from identical clones.
func TestReorgVirtualConcurrentAgree(t *testing.T) {
	base := model.UCFTestbedN(8)
	plan := &fabric.ChaosPlan{
		Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 40, Factor: 8}},
		Churns:     []fabric.Churn{{Pid: 7, JoinAt: 2}},
	}
	trV := base.Clone()
	obsV := newChurnObs()
	if err := runElasticVirtual(t, trV, plan, 2, 42, churnProg(churnCfg{rounds: 8, work: 2}, obsV)); err != nil {
		t.Fatalf("virtual: %v", err)
	}
	trC := base.Clone()
	obsC := newChurnObs()
	if err := runElasticConcurrent(t, trC, plan, 2, 42, churnProg(churnCfg{rounds: 8, work: 2}, obsC)); err != nil {
		t.Fatalf("concurrent: %v", err)
	}
	if v, c := leafPids(trV), leafPids(trC); !reflect.DeepEqual(v, c) {
		t.Errorf("final layouts diverge: virtual %v vs concurrent %v", v, c)
	}
	if obsV.sums[0] != obsC.sums[0] {
		t.Errorf("folds diverge: virtual %d vs concurrent %d", obsV.sums[0], obsC.sums[0])
	}
	checkJoinSymmetry(t, obsV, []int{0, 1, 2, 3, 4, 5, 6, 7}, "virtual")
	checkJoinSymmetry(t, obsC, []int{0, 1, 2, 3, 4, 5, 6, 7}, "concurrent")
}

// Delivery-order permutations must not leak into a reorganizing,
// churning run: every replay fingerprint agrees, and the caller's tree
// comes back in its pristine layout.
func TestRunSchedulesAgreeUnderChurnAndReorg(t *testing.T) {
	tr := model.UCFTestbedN(6)
	pristine := leafPids(tr)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{
		Stragglers: []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 20, Factor: 5}},
		Churns:     []fabric.Churn{{Pid: 5, JoinAt: 2}, {Pid: 2, LeaveAt: 5}},
	}
	eng.ReorgEvery = 3
	eng.ReorgSeed = 7
	obs := newChurnObs()
	set, err := eng.RunSchedules(churnProg(churnCfg{rounds: 8, work: 1}, obs), 3, 99)
	if err != nil {
		t.Fatalf("RunSchedules: %v", err)
	}
	if !set.Agree() {
		t.Errorf("replays diverge under churn+reorg: %s", set.Diff())
	}
	if got := leafPids(tr); !reflect.DeepEqual(got, pristine) {
		t.Errorf("tree layout not restored after RunSchedules: %v, want %v", got, pristine)
	}
}

// Checkpoints must survive a membership change in both directions: a
// leaver's last committed state stays restorable (shrunk) and a
// joiner's post-activation state commits like anyone else's (grown).
func TestCheckpointAcrossMembershipChange(t *testing.T) {
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := model.UCFTestbedN(4)
			layout := tr.SaveLayout()
			store := NewCheckpointStore()
			plan := &fabric.ChaosPlan{Churns: []fabric.Churn{
				{Pid: 3, JoinAt: 2},
				{Pid: 2, LeaveAt: 4},
			}}
			obs := newChurnObs()
			prog := churnProg(churnCfg{rounds: 6, work: 1, save: true, ckptEv: 1}, obs)
			var err error
			if engine == "virtual" {
				eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Chaos = plan
				eng.Ckpt = store
				eng.CheckpointEvery = 1
				_, err = eng.Run(prog)
			} else {
				eng := NewConcurrent(tr)
				eng.Chaos = plan
				eng.Ckpt = store
				eng.CheckpointEvery = 1
				_, err = eng.Run(prog)
			}
			if err != nil {
				t.Fatalf("churn run: %v", err)
			}
			obs.mu.Lock()
			want := make(map[int]uint64, len(obs.saved))
			for pid, v := range obs.saved {
				want[pid] = v
			}
			obs.mu.Unlock()
			for _, pid := range []int{0, 1, 2, 3} {
				if _, ok := want[pid]; !ok {
					t.Fatalf("p%d committed no checkpoints", pid)
				}
				if store.LastStep(pid) <= 0 {
					t.Fatalf("store has no commit ordinal for p%d", pid)
				}
			}

			// Recovery run: full membership, no churn, same store. Every
			// processor — the departed p2 and the joiner p3 included — must
			// restore exactly the value it last committed.
			tr.RestoreLayout(layout)
			restored := make([]uint64, tr.NProcs())
			var mu sync.Mutex
			recovery := func(c Ctx) error {
				b, ok := c.Restore("acc")
				if !ok {
					return fmt.Errorf("p%d: no committed state to restore", c.Pid())
				}
				mu.Lock()
				restored[c.Pid()] = binary.BigEndian.Uint64(b)
				mu.Unlock()
				return SyncAll(c, "recovered")
			}
			if engine == "virtual" {
				eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Ckpt = store
				_, err = eng.Run(recovery)
			} else {
				eng := NewConcurrent(tr)
				eng.Ckpt = store
				_, err = eng.Run(recovery)
			}
			if err != nil {
				t.Fatalf("recovery run: %v", err)
			}
			for pid, w := range want {
				if restored[pid] != w {
					t.Errorf("p%d restored %d, want last committed %d", pid, restored[pid], w)
				}
			}
		})
	}
}

// TestChurnReorgSoakSeeded is the CI smoke (check.sh runs it under
// -race): seeded churn schedules with joins, leaves and a straggler
// burst, reorganizing every third barrier, on both engines. The virtual
// engine must reproduce itself bit-for-bit; the concurrent engine must
// agree with it on the fold and the final layout.
func TestChurnReorgSoakSeeded(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := model.UCFTestbedN(8)
			plan := &fabric.ChaosPlan{
				Seed:   seed,
				Churns: fabric.SeededChurn(seed, 8, 2, 2, 4),
				Stragglers: []fabric.Straggler{
					{Pid: 1, FromStep: 0, ToStep: 30, Factor: 5},
				},
			}
			run := func(engine string) (*churnObs, []int) {
				tr := base.Clone()
				obs := newChurnObs()
				prog := churnProg(churnCfg{rounds: 12, work: 1}, obs)
				var err error
				if engine == "virtual" {
					err = runElasticVirtual(t, tr, plan, 3, seed, prog)
				} else {
					err = runElasticConcurrent(t, tr, plan, 3, seed, prog)
				}
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return obs, leafPids(tr)
			}
			obs1, lay1 := run("virtual")
			obs2, lay2 := run("virtual")
			if !reflect.DeepEqual(lay1, lay2) || !reflect.DeepEqual(obs1.sums, obs2.sums) ||
				!reflect.DeepEqual(obs1.members, obs2.members) || !reflect.DeepEqual(obs1.failed, obs2.failed) {
				t.Errorf("virtual runs diverge: layouts %v vs %v, folds %v vs %v",
					lay1, lay2, obs1.sums, obs2.sums)
			}
			obsC, layC := run("concurrent")
			if !reflect.DeepEqual(lay1, layC) {
				t.Errorf("engines diverge on final layout: virtual %v vs concurrent %v", lay1, layC)
			}
			if obs1.sums[0] != obsC.sums[0] {
				t.Errorf("engines diverge on fold: virtual %d vs concurrent %d", obs1.sums[0], obsC.sums[0])
			}
			// Every finisher ends with the same membership and failure view.
			var wantM, wantF []int
			for pid, m := range obs1.members {
				if wantM == nil {
					wantM, wantF = m, obs1.failed[pid]
					continue
				}
				if !reflect.DeepEqual(m, wantM) || !reflect.DeepEqual(obs1.failed[pid], wantF) {
					t.Errorf("p%d view diverges: Members %v / Failed %v, want %v / %v",
						pid, m, obs1.failed[pid], wantM, wantF)
				}
			}
		})
	}
}

// quiesceVictimProg crashes pid 3 at its second Sync and keeps the
// corpse running past the survivors' next reorg cut: the victim sleeps
// across the cut, re-syncs once while dead (the drain must serve it),
// and only then returns. Survivors absorb the failure notice and keep
// going. A reorganization every barrier guarantees the engines hit
// their wait-for-unwinding-corpse path while the victim is still alive.
func quiesceVictimProg(rounds int) Program {
	return func(c Ctx) error {
		root := c.Tree().Root
		for r := 0; r < rounds; r++ {
			c.Charge(10 * float64(c.Pid()+1))
			err := c.Sync(root, "round")
			for err != nil {
				if IsCrashStop(err) {
					time.Sleep(60 * time.Millisecond)
					_ = c.Sync(root, "corpse")
					return err
				}
				var pf *ErrPeerFailed
				if !errors.As(err, &pf) {
					return err
				}
				err = c.Sync(root, "retry")
			}
		}
		return nil
	}
}

func TestReorgQuiescesUnwindingVictim(t *testing.T) {
	plan := &fabric.ChaosPlan{Seed: 5, Crashes: []fabric.Crash{{Pid: 3, AtStep: 1}}}
	t.Run("virtual", func(t *testing.T) {
		tr := model.UCFTestbedN(4)
		eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = plan
		eng.ReorgEvery = 1
		eng.ReorgSeed = 7
		rep, err := eng.Run(quiesceVictimProg(4))
		if err != nil {
			t.Fatalf("virtual run: %v", err)
		}
		if rep.Total <= 0 {
			t.Fatalf("virtual makespan %v, want > 0", rep.Total)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		tr := model.UCFTestbedN(4)
		eng := NewConcurrent(tr)
		eng.Chaos = plan
		eng.ReorgEvery = 1
		eng.ReorgSeed = 7
		if _, err := eng.Run(quiesceVictimProg(4)); err != nil {
			t.Fatalf("concurrent run: %v", err)
		}
	})
}

func TestJoinNoticeString(t *testing.T) {
	j := &ErrPeerJoined{Pid: 3, Step: 2}
	want := "hbsp: peer p3 joined at global step 2"
	if j.Error() != want {
		t.Fatalf("ErrPeerJoined.Error() = %q, want %q", j.Error(), want)
	}
}
