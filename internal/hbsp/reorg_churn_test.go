package hbsp

import (
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

// The churn and reorganization contract: orderly leaves surface as
// ErrPeerFailed with cause "leave", on both engines, so the membership
// only shrinks; barrier-time rebalancing permutes leaf slots without
// breaking barrier alignment; and identical seeds produce identical
// reorg schedules. Reorganization runs on Virtual only.

const (
	ctlTag  = 7 // coordinator -> members: stop flag
	dataTag = 8 // members -> coordinator: fold contribution
)

// churnObs collects per-processor observations from a churn-tolerant
// program, for assertions after the run.
type churnObs struct {
	mu     sync.Mutex
	fails  map[int]int   // pid -> failure notices absorbed
	failed map[int][]int // pid -> final Failed()
	sums   map[int]int64 // pid -> final fold value
	rounds map[int]int   // pid -> rounds completed
	exit   map[int]error // pid -> error the program unwound with
}

func newChurnObs() *churnObs {
	return &churnObs{
		fails: map[int]int{}, failed: map[int][]int{},
		sums: map[int]int64{}, rounds: map[int]int{}, exit: map[int]error{},
	}
}

func (o *churnObs) noteFail(pid int) { o.mu.Lock(); o.fails[pid]++; o.mu.Unlock() }

func (o *churnObs) finish(c Ctx, sum int64, rounds int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed[c.Pid()] = c.Failed()
	o.sums[c.Pid()] = sum
	o.rounds[c.Pid()] = rounds
}

// churnCfg tunes churnProg.
type churnCfg struct {
	rounds int
	work   float64
}

// churnProg builds a self-synchronizing iterative workload: processor 0
// coordinates termination by broadcasting a stop flag each round to
// every processor it does not know to be dead, while the others fold
// data back. Death notices (ErrPeerFailed) are absorbed by re-sending
// and retrying the barrier, so the loop survives crash-stops and
// orderly leaves.
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
		done := 0
		stop := false
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
					for m := 1; m < c.NProcs(); m++ {
						if !failed[m] {
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
				c.Charge(cfg.work * float64(1+c.Pid()%3))
				err := c.Sync(root, "round")
				if err == nil {
					break
				}
				var pf *ErrPeerFailed
				if !errors.As(err, &pf) {
					return err
				}
				obs.noteFail(c.Pid())
			}
			for _, m := range c.Moves() {
				switch {
				case c.Pid() == 0 && m.Tag == dataTag:
					sum += int64(m.Payload[0]) + int64(round)
				case m.Src == 0 && m.Tag == ctlTag:
					stop = m.Payload[0] == 1
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

func runElasticConcurrent(t *testing.T, tr *model.Tree, plan *fabric.ChaosPlan, prog Program) error {
	t.Helper()
	eng := NewConcurrent(tr)
	eng.Chaos = plan
	_, err := eng.Run(prog)
	return err
}

// An orderly leave surfaces to survivors as ErrPeerFailed with cause
// "leave" and to the leaver itself as an errLeave error; the run
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
				err = runElasticConcurrent(t, tr, plan, prog)
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			obs.mu.Lock()
			defer obs.mu.Unlock()
			if !errors.Is(obs.exit[2], errLeave) {
				t.Errorf("leaver unwound with %v, want an errLeave error", obs.exit[2])
			}
			for _, pid := range []int{0, 1, 3} {
				if got := obs.fails[pid]; got != 1 {
					t.Errorf("survivor p%d absorbed %d failure notices, want 1", pid, got)
				}
				if got := obs.failed[pid]; !reflect.DeepEqual(got, []int{2}) {
					t.Errorf("survivor p%d Failed() = %v, want [2]", pid, got)
				}
				if _, finished := obs.rounds[pid]; !finished {
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
	t.Run("virtual", func(t *testing.T) {
		tr := model.UCFTestbedN(6)
		plan := &fabric.ChaosPlan{
			Crashes:    []fabric.Crash{{Pid: 4, AtStep: 4}},
			Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 20, Factor: 6}},
		}
		obs := newChurnObs()
		if err := runElasticVirtual(t, tr, plan, 3, 42, churnProg(churnCfg{rounds: 9, work: 1}, obs)); err != nil {
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
	t.Run("virtual", func(t *testing.T) {
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
		eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos, eng.ReorgEvery, eng.ReorgSeed, eng.Obsv = plan, 1, 42, rec
		if _, err := eng.Run(prog); err != nil {
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

// Delivery-order permutations must not leak into a reorganizing run
// with a leaver: every replay fingerprint agrees, and the caller's tree
// comes back in its pristine layout.
func TestRunSchedulesAgreeUnderChurnAndReorg(t *testing.T) {
	tr := model.UCFTestbedN(6)
	pristine := leafPids(tr)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{
		Stragglers: []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 20, Factor: 5}},
		Churns:     []fabric.Churn{{Pid: 2, LeaveAt: 5}},
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

// TestChurnReorgSoakSeeded is the CI smoke (check.sh runs it under
// -race): seeded orderly leaves and a straggler burst. Reorganizing every
// third barrier, the virtual engine must reproduce itself bit-for-bit,
// and every finisher must end with the same failure view. Without
// reorganization both engines must agree on the fold and on every
// finisher's Failed view.
func TestChurnReorgSoakSeeded(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := &fabric.ChaosPlan{
				Seed:   seed,
				Churns: fabric.SeededChurn(seed, 8, 2, 4),
				Stragglers: []fabric.Straggler{
					{Pid: 1, FromStep: 0, ToStep: 30, Factor: 5},
				},
			}
			if len(plan.Churns) == 0 {
				t.Fatal("the seeded plan has no leave: the soak tests nothing")
			}
			run := func(engine string, every int) (*churnObs, []int) {
				tr := model.UCFTestbedN(8)
				obs := newChurnObs()
				prog := churnProg(churnCfg{rounds: 12, work: 1}, obs)
				var err error
				if engine == "virtual" {
					err = runElasticVirtual(t, tr, plan, every, seed, prog)
				} else {
					err = runElasticConcurrent(t, tr, plan, prog)
				}
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return obs, leafPids(tr)
			}
			obs1, lay1 := run("virtual", 3)
			obs2, lay2 := run("virtual", 3)
			if !reflect.DeepEqual(lay1, lay2) || !reflect.DeepEqual(obs1.sums, obs2.sums) ||
				!reflect.DeepEqual(obs1.failed, obs2.failed) {
				t.Errorf("virtual runs diverge: layouts %v vs %v, folds %v vs %v",
					lay1, lay2, obs1.sums, obs2.sums)
			}
			// Every finisher ends with the same failure view.
			var want []int
			for pid, f := range obs1.failed {
				if want == nil {
					want = f
				} else if !reflect.DeepEqual(f, want) {
					t.Errorf("p%d Failed %v, want %v", pid, f, want)
				}
			}

			obsV, _ := run("virtual", 0)
			obsC, _ := run("concurrent", 0)
			if obsV.sums[0] != obsC.sums[0] {
				t.Errorf("engines diverge on fold: virtual %d vs concurrent %d", obsV.sums[0], obsC.sums[0])
			}
			if !reflect.DeepEqual(obsV.failed, obsC.failed) {
				t.Errorf("engines diverge on the finishers' Failed views: virtual %v, concurrent %v",
					obsV.failed, obsC.failed)
			}
		})
	}
}

// quiesceVictimProg crashes pid 3 at its second Sync and keeps the
// corpse running past the survivors' next reorg cut: the victim sleeps
// across the cut, re-syncs once while dead (the drain must serve it),
// and only then returns. Survivors absorb the failure notice and keep
// going. A reorganization every barrier puts a cut between the crash and
// the corpse's re-sync.
func quiesceVictimProg(rounds int) Program {
	return func(c Ctx) error {
		root := c.Tree().Root
		for r := 0; r < rounds; r++ {
			c.Charge(10 * float64(c.Pid()+1))
			err := c.Sync(root, "round")
			for err != nil {
				if errors.Is(err, errCrashStop) {
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
}
