package hbsp

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/trace"
)

// What a steady-state superstep reuses — the scope's one cyclic barrier,
// the chunked step record, the registry indexed by pid and scope id —
// checked where reuse could go wrong: across chunk boundaries, with an
// observer watching, and when a fault lands on a barrier that has already
// served a hundred generations.

// The step record grows in chunks and is flat in the Report: same steps,
// same order, contiguous Index, as a plain append would have built.
func TestStepLogFlattensInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var log stepLog
	var want []trace.Step
	if log.flat() != nil {
		t.Error("an empty log flattens to a non-nil slice")
	}
	for i := 0; i < 3*stepChunk+7; i++ {
		s := trace.Step{Index: i, Label: fmt.Sprint("s", i), Bytes: rng.Intn(1 << 20), Start: rng.Float64(), Participants: 1 + rng.Intn(8)}
		log.add(s)
		want = append(want, s)
		if log.len() != len(want) {
			t.Fatalf("after %d steps len() = %d", len(want), log.len())
		}
	}
	if got := log.flat(); !reflect.DeepEqual(got, want) {
		t.Errorf("flat() differs from the plain append of the same %d steps", len(want))
	}
}

// twoLevel runs rounds of a cluster superstep followed by a root
// superstep, one neighbour message in each, so a run of it crosses
// several chunks of the step record on two scopes' barriers.
func twoLevel(rounds int) Program {
	return func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		peers := cluster.Pids()
		for r := 0; r < rounds; r++ {
			if err := c.Send(peers[(slices.Index(peers, c.Pid())+1)%len(peers)], 1, []byte{byte(r)}); err != nil {
				return err
			}
			if err := c.Sync(cluster, "in"); err != nil {
				return err
			}
			if err := c.Send((c.Pid()+1)%c.NProcs(), 2, []byte{byte(r), byte(c.Pid())}); err != nil {
				return err
			}
			if err := SyncAll(c, "all"); err != nil {
				return err
			}
		}
		return nil
	}
}

// On both engines the Report's steps are the Superstep events the
// recorder saw, in the order it saw them (its ring is the plain append
// the record is checked against), with Index counting from zero.
func TestReportStepsAcrossChunkBoundaries(t *testing.T) {
	const rounds = 2 * stepChunk // three steps a round: nine chunks' worth
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			tr := superstepTree()
			rec := obsv.New(obsv.Config{Capacity: 1 << 14, SampleEvery: -1})
			var rep *trace.Report
			var err error
			if engine == "virtual" {
				eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Obsv = rec
				rep, err = eng.Run(twoLevel(rounds))
			} else {
				eng := NewConcurrent(tr)
				eng.Obsv = rec
				rep, err = eng.Run(twoLevel(rounds))
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := 3 * rounds; len(rep.Steps) != want || cap(rep.Steps) != want {
				t.Fatalf("%d steps (cap %d), want %d", len(rep.Steps), cap(rep.Steps), want)
			}
			var seen []obsv.Event
			for _, ev := range rec.Events() {
				if ev.Kind == obsv.KindSuperstep {
					seen = append(seen, ev)
				}
			}
			if len(seen) != len(rep.Steps) {
				t.Fatalf("%d superstep events for %d steps", len(seen), len(rep.Steps))
			}
			for i, s := range rep.Steps {
				ev := seen[i]
				if s.Index != i || int(ev.Step) != i || s.Label != ev.Name || s.ScopeLabel != ev.Scope ||
					s.Level != int(ev.Level) || s.Start != ev.Start || s.End != ev.End || int64(s.Bytes) != ev.Bytes {
					t.Fatalf("step %d = %+v, recorded as %+v", i, s, ev)
				}
			}
		})
	}
}

// With a recorder installed a warm run emits what it always did: one
// barrier span per processor per superstep — entered after the previous
// one was left, left no earlier than entered — and one delivery event per
// message, stamped after the barrier that delivered it.
func TestObserverSeesEveryBarrierAndDelivery(t *testing.T) {
	const steps, size = 150, 64
	tr := superstepTree()
	p := tr.NProcs()
	rec := obsv.New(obsv.Config{Capacity: 1 << 14})
	eng := NewConcurrent(tr)
	eng.Obsv = rec
	if _, err := eng.Run(allToAll(size, 0, steps, func() {}, func() {})); err != nil {
		t.Fatal(err)
	}
	type key struct{ step, pid, src int32 }
	barriers := map[key]obsv.Event{}
	deliveries := map[key]obsv.Event{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obsv.KindBarrier:
			if _, dup := barriers[key{ev.Step, ev.Pid, -1}]; dup {
				t.Fatalf("two barrier spans for p%d step %d", ev.Pid, ev.Step)
			}
			if ev.Scope != tr.Root.Label() || int(ev.Level) != tr.Root.Level || ev.Start > ev.End || ev.Start <= 0 {
				t.Fatalf("barrier span %+v", ev)
			}
			barriers[key{ev.Step, ev.Pid, -1}] = ev
		case obsv.KindDelivery:
			if _, dup := deliveries[key{ev.Step, ev.Dst, ev.Src}]; dup {
				t.Fatalf("two delivery events for %d→%d step %d", ev.Src, ev.Dst, ev.Step)
			}
			if ev.Tag != 1 || ev.Bytes != size || ev.Start != ev.End || ev.Src == ev.Dst {
				t.Fatalf("delivery event %+v", ev)
			}
			deliveries[key{ev.Step, ev.Dst, ev.Src}] = ev
		}
	}
	if len(barriers) != steps*p || len(deliveries) != steps*p*(p-1) {
		t.Fatalf("%d barrier spans and %d deliveries, want %d and %d", len(barriers), len(deliveries), steps*p, steps*p*(p-1))
	}
	for k, b := range barriers {
		if prev, ok := barriers[key{k.step - 1, k.pid, -1}]; ok && b.Start < prev.End {
			t.Errorf("p%d entered barrier %d at %g, before leaving %d at %g", k.pid, k.step, b.Start, k.step-1, prev.End)
		}
	}
	for k, d := range deliveries {
		if b := barriers[key{k.step, k.pid, -1}]; d.Start < b.End {
			t.Errorf("delivery %d→%d of step %d stamped %g, before its barrier's exit %g", k.src, k.pid, k.step, d.Start, b.End)
		}
	}
}

// lateFaults is twoLevel made fault-tolerant: a membership notice is
// logged with the ordinal of the Sync that returned it and the Sync is
// retried, a reorganization is followed to the leaf's new cluster, and a
// latecomer takes its place from the global step its own join notice
// names. before runs ahead of every Sync with the processor's ordinal.
func lateFaults(rounds int, logs [][]string, before func(pid, ord int)) Program {
	return func(c Ctx) error {
		ord, done := 0, 0
		sync := func(scope func() *model.Machine, label string) error {
			for {
				before(c.Pid(), ord)
				s := scope()
				err := c.Sync(s, label)
				ord++
				var pf *ErrPeerFailed
				var pj *ErrPeerJoined
				switch {
				case err == nil:
					return nil
				case errors.As(err, &pj):
					if pj.Pid == c.Pid() {
						done = pj.Step
					}
				case !errors.As(err, &pf):
					return err
				}
				logs[c.Pid()] = append(logs[c.Pid()], fmt.Sprintf("sync %d, level %d: %v", ord-1, s.Level, err))
			}
		}
		cluster := func() *model.Machine { return c.Tree().ScopeAt(c.Self(), 1) }
		root := func() *model.Machine { return c.Tree().Root }
		for done < rounds {
			if err := sync(cluster, "in"); err != nil {
				return err
			}
			c.Charge(1)
			if err := sync(root, "all"); err != nil {
				return err
			}
			done++
		}
		return nil
	}
}

// A crash-stop, a late join and a reorganization cut, each landing on
// scopes whose barriers have already been reused for more than a hundred
// generations: every processor is told the same thing at the same Sync as
// on the virtual engine, whose coordinator never had a barrier to reuse.
// The third case is the one a name kept across generations could get
// wrong: the victim dies while its cluster peer is parked (the cancel
// latches the cluster's name), and the reorganization then moves the dead
// leaf out of that cluster and a live one in — whose members must not
// fall back to the latched name.
func TestLateFaultsOnAReusedBarrier(t *testing.T) {
	const rounds = 160
	slowVictim := []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 4 * rounds, Factor: 10}}
	for _, tc := range []struct {
		name  string
		plan  *fabric.ChaosPlan
		every int
		want  map[int]int // notices per pid
	}{
		{"crash", &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 241}}}, 0,
			map[int]int{0: 2, 2: 1, 3: 1}},
		{"join", &fabric.ChaosPlan{Churns: []fabric.Churn{{Pid: 3, JoinAt: 120}}}, 0,
			map[int]int{0: 1, 1: 1, 2: 2, 3: 2}},
		{"reorg", &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 200}}, Stragglers: slowVictim}, 130,
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(engine string) ([][]string, *model.Tree) {
				tr := superstepTree()
				logs := make([][]string, tr.NProcs())
				// The victim dawdles before the Sync it dies in, so that its
				// cluster peer is parked at their barrier when it does.
				prog := lateFaults(rounds, logs, func(pid, ord int) {
					if engine == "concurrent" && len(tc.plan.Crashes) > 0 && pid == 1 && ord == tc.plan.Crashes[0].AtStep {
						time.Sleep(20 * time.Millisecond)
					}
				})
				var err error
				if engine == "virtual" {
					err = runElasticVirtual(t, tr, tc.plan, tc.every, 42, prog)
				} else {
					err = runElasticConcurrent(t, tr, tc.plan, tc.every, 42, prog)
				}
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return logs, tr
			}
			want, _ := run("virtual")
			got, tr := run("concurrent")
			for pid := range want {
				if !slices.Equal(got[pid], want[pid]) {
					t.Errorf("p%d on concurrent:\n  %v\non virtual:\n  %v", pid, got[pid], want[pid])
				}
				if n, ok := tc.want[pid]; ok && len(want[pid]) != n {
					t.Errorf("p%d was told %d things, want %d: %v", pid, len(want[pid]), n, want[pid])
				}
			}
			if tc.every > 0 && tr.ScopeAt(tr.Leaf(1), 1) == tr.ScopeAt(tr.Leaf(0), 1) {
				t.Errorf("the reorganization left the dead leaf with its peer (layout %v): the case tests nothing", leafPids(tr))
			}
		})
	}
}

// A processor whose detection deadline expired has withdrawn from a
// generation its peer can still arrive at. Its retry burns the next
// generation, so the two must not meet at one barrier: if they did, both
// Syncs would succeed on different wire tags and each would find its
// window silently short. Whatever a Sync that succeeds delivers is the
// peer's message of the same attempt — before the stall, after it, or
// never again if the two deadlines keep chasing each other.
func TestDetectionTimeoutNeverCompletesAnotherGeneration(t *testing.T) {
	const warm, stall, budget = 40, 20 * time.Millisecond, 80 * time.Millisecond
	tr := model.Homogeneous(2, 0)
	eng := NewConcurrent(tr)
	eng.DetectFactor = 2
	eng.DesyncTimeout = -1 // the run ends by the clock, one processor before the other
	timeouts := make([]int, 2)
	_, _ = eng.Run(func(c Ctx) error {
		peer := 1 - c.Pid()
		start := time.Now()
		for n := 0; time.Since(start) < budget; n++ {
			if c.Pid() == 1 && n == warm {
				time.Sleep(stall)
			}
			if err := c.Send(peer, 1, []byte{byte(c.Pid())}); err != nil {
				return err
			}
			switch err := SyncAll(c, "round"); {
			case err == nil:
				if got := c.Moves(); len(got) != 1 || got[0].Src != peer {
					t.Errorf("p%d attempt %d: Sync succeeded and delivered %v", c.Pid(), n, got)
					return nil
				}
			case errors.Is(err, ErrTimeout):
				timeouts[c.Pid()]++
			default:
				return nil // the peer has left: halted, or the link of the dead
			}
		}
		return nil
	})
	if timeouts[0] == 0 {
		t.Error("p0 never timed out waiting for the stalled p1: the case tests nothing")
	}
}
