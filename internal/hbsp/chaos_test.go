package hbsp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// The fault-injection contract, checked on both engines: a chaos-killed
// processor surfaces to every live scope member as a typed
// ErrPeerFailed at the same sync generation — never as a hang, never as
// silently wrong data — and a program that absorbs the error completes
// over the survivors.

// runChaos runs prog on Virtual under the fault-injection plan.
func runChaos(t *model.Tree, cfg fabric.Config, plan *fabric.ChaosPlan, prog Program) (*trace.Report, error) {
	eng := NewVirtual(t, fabric.New(t, cfg))
	eng.Chaos = plan
	return eng.Run(prog)
}

// pvmNoisy is fabric.PVM on a non-dedicated cluster.
func pvmNoisy(noise float64, seed int64) fabric.Config {
	c := fabric.PVM()
	c.Noise, c.Seed = noise, seed
	return c
}

// absorbOnce retries a failed sync exactly once when the failure is a
// detected peer death; any other error propagates.
func absorbOnce(c Ctx, label string, err error) error {
	var pf *ErrPeerFailed
	if errors.As(err, &pf) {
		return SyncAll(c, label+"-retry")
	}
	return err
}

func crashProg(steps int, work float64) Program {
	return func(c Ctx) error {
		for s := 0; s < steps; s++ {
			c.Charge(work)
			if err := SyncAll(c, fmt.Sprintf("step%d", s)); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestChaosCrashSurfacesTypedErrorVirtual(t *testing.T) {
	tr := model.UCFTestbedN(4)
	plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 2, AtStep: 1}}}
	_, err := runChaos(tr, fabric.PureModel(), plan, crashProg(3, 10))
	var pf *ErrPeerFailed
	if !errors.As(err, &pf) {
		t.Fatalf("run error = %v, want ErrPeerFailed", err)
	}
	if pf.Pid != 2 || pf.Step != 1 {
		t.Errorf("failure = p%d at step %d, want p2 at step 1", pf.Pid, pf.Step)
	}
	if errors.Is(err, errCrashStop) {
		t.Error("victim's own crash-stop error escaped as the run verdict")
	}
}

func TestChaosCrashSurfacesTypedErrorConcurrent(t *testing.T) {
	tr := model.UCFTestbedN(4)
	eng := NewConcurrent(tr)
	eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 2, AtStep: 1}}}
	_, err := eng.Run(crashProg(3, 10))
	var pf *ErrPeerFailed
	if !errors.As(err, &pf) {
		t.Fatalf("run error = %v, want ErrPeerFailed", err)
	}
	if pf.Pid != 2 {
		t.Errorf("failure = p%d, want p2", pf.Pid)
	}
}

// shrinkProg absorbs a peer failure, retries the step, and verifies at
// the end that the survivor's Failed view names exactly the victim.
func shrinkProg(steps, victim int) Program {
	return func(c Ctx) error {
		for s := 0; s < steps; s++ {
			c.Charge(5)
			err := SyncAll(c, fmt.Sprintf("w%d", s))
			if err != nil {
				if err = absorbOnce(c, fmt.Sprintf("w%d", s), err); err != nil {
					return err
				}
			}
		}
		if got := c.Failed(); len(got) != 1 || got[0] != victim {
			return fmt.Errorf("p%d Failed() = %v, want [%d]", c.Pid(), got, victim)
		}
		return nil
	}
}

func TestChaosShrinkThenCompleteVirtual(t *testing.T) {
	tr := model.UCFTestbedN(4)
	plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 2}}}
	rep, err := runChaos(tr, fabric.PureModel(), plan, shrinkProg(4, 1))
	if err != nil {
		t.Fatalf("fault-tolerant run failed: %v", err)
	}
	last := rep.Steps[len(rep.Steps)-1]
	if last.Participants != 3 {
		t.Errorf("final step participants = %d, want 3 survivors", last.Participants)
	}
}

func TestChaosShrinkThenCompleteConcurrent(t *testing.T) {
	tr := model.UCFTestbedN(4)
	eng := NewConcurrent(tr)
	eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 2}}}
	rep, err := eng.Run(shrinkProg(4, 1))
	if err != nil {
		t.Fatalf("fault-tolerant run failed: %v", err)
	}
	last := rep.Steps[len(rep.Steps)-1]
	if last.Participants != 3 {
		t.Errorf("final step participants = %d, want 3 survivors", last.Participants)
	}
}

// Two runs under the same seed, noise, and chaos plan must produce
// byte-identical reports: faults are part of the deterministic model.
func TestChaosVirtualRunsAreDeterministic(t *testing.T) {
	tr := model.UCFTestbedN(5)
	plan := &fabric.ChaosPlan{
		Seed:       11,
		Crashes:    []fabric.Crash{{Pid: 3, AtStep: 2}},
		Drop:       0.2,
		Duplicate:  0.2,
		Delay:      0.2,
		DelaySteps: 1,
		Stragglers: []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 2, Factor: 3}},
	}
	prog := func(c Ctx) error {
		for s := 0; s < 5; s++ {
			c.Charge(float64(10 * (c.Pid() + 1)))
			if err := c.Send((c.Pid()+1)%c.NProcs(), 1, []byte{byte(s), byte(c.Pid())}); err != nil {
				return err
			}
			err := SyncAll(c, fmt.Sprintf("r%d", s))
			if err != nil {
				if err = absorbOnce(c, fmt.Sprintf("r%d", s), err); err != nil {
					return err
				}
			}
		}
		return nil
	}
	run := func() interface{} {
		rep, err := runChaos(tr, pvmNoisy(0.3, 5), plan, prog)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("identical chaos runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// The detection deadline charged to survivors scales with DetectFactor:
// a paranoid detector (larger factor) costs more virtual time.
func TestChaosDetectionChargeScalesWithFactor(t *testing.T) {
	tr := model.UCFTestbedN(4)
	total := func(factor float64) float64 {
		eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 1}}}
		eng.DetectFactor = factor
		rep, err := eng.Run(shrinkProg(3, 1))
		if err != nil {
			t.Fatalf("run with factor %v failed: %v", factor, err)
		}
		return rep.Total
	}
	lo, hi := total(1), total(8)
	if hi <= lo {
		t.Errorf("Total(factor=8) = %v <= Total(factor=1) = %v; detection charge not applied", hi, lo)
	}
}

// fateProbe runs pid 0 sending one tagged byte to pid 1 per step and
// returns, per step, the payloads pid 1 saw after that step's sync.
func fateProbe(t *testing.T, plan *fabric.ChaosPlan, steps int) ([][]byte, int) {
	t.Helper()
	tr := model.UCFTestbedN(2)
	got := make([][]byte, steps)
	prog := func(c Ctx) error {
		for s := 0; s < steps; s++ {
			if c.Pid() == 0 {
				if err := c.Send(1, 5, []byte{0xA0 + byte(s)}); err != nil {
					return err
				}
			}
			if err := SyncAll(c, fmt.Sprintf("s%d", s)); err != nil {
				return err
			}
			if c.Pid() == 1 {
				for _, m := range c.Moves() {
					got[s] = append(got[s], m.Payload...)
				}
			}
		}
		return nil
	}
	rep, err := runChaos(tr, fabric.PureModel(), plan, prog)
	if err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	return got, rep.Steps[0].Flows
}

func TestChaosDropSkipsDeliveryButChargesFlow(t *testing.T) {
	got, flows := fateProbe(t, &fabric.ChaosPlan{Seed: 1, Drop: 1}, 2)
	for s, g := range got {
		if len(g) != 0 {
			t.Errorf("step %d delivered %v despite Drop=1", s, g)
		}
	}
	if flows != 1 {
		t.Errorf("first step flows = %d, want 1: a dropped message still consumed bandwidth", flows)
	}
}

func TestChaosDuplicateDeliversTwice(t *testing.T) {
	got, _ := fateProbe(t, &fabric.ChaosPlan{Seed: 1, Duplicate: 1}, 1)
	if want := []byte{0xA0, 0xA0}; !bytes.Equal(got[0], want) {
		t.Errorf("step 0 delivered %v, want duplicated %v", got[0], want)
	}
}

func TestChaosDelayPostponesDelivery(t *testing.T) {
	// Delay=1 delays every message: the step-s send arrives after the
	// step-s+1 sync.
	got, _ := fateProbe(t, &fabric.ChaosPlan{Seed: 1, Delay: 1, DelaySteps: 1}, 3)
	if len(got[0]) != 0 {
		t.Errorf("step 0 delivered %v, want nothing (delayed)", got[0])
	}
	if want := []byte{0xA0}; !bytes.Equal(got[1], want) {
		t.Errorf("step 1 delivered %v, want %v (step-0 message one step late)", got[1], want)
	}
	if want := []byte{0xA1}; !bytes.Equal(got[2], want) {
		t.Errorf("step 2 delivered %v, want %v", got[2], want)
	}
}

func TestChaosStragglerDilatesChargedWork(t *testing.T) {
	tr := model.Homogeneous(2, 10)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{Stragglers: []fabric.Straggler{
		{Pid: 0, FromStep: 0, ToStep: 0, Factor: 5},
	}}
	rep, err := eng.Run(crashProg(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps[0].W != 500 {
		t.Errorf("straggler step W = %v, want 500 (100 × factor 5)", rep.Steps[0].W)
	}
	if rep.Steps[1].W != 100 {
		t.Errorf("post-burst step W = %v, want 100", rep.Steps[1].W)
	}
}

// A malformed program must still be diagnosed as ErrDesync — not
// misread as a peer failure — even with noise, message fates and a
// straggler burst active.
func desyncProg(c Ctx) error {
	if c.Pid() == 0 { //hbspk:ignore pidtaint (deliberate desync: the program under test must be diagnosed as ErrDesync)
		return nil // exits without syncing; the others wait forever
	}
	for s := 0; s < 2; s++ {
		if err := SyncAll(c, "lockstep"); err != nil {
			return err
		}
	}
	return nil
}

func TestChaosDesyncStillDetectedVirtual(t *testing.T) {
	tr := model.UCFTestbedN(3)
	plan := &fabric.ChaosPlan{
		Seed: 3, Drop: 0.1,
		Stragglers: []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 9, Factor: 4}},
	}
	_, err := runChaos(tr, pvmNoisy(0.2, 7), plan, desyncProg)
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("run error = %v, want ErrDesync", err)
	}
	var pf *ErrPeerFailed
	if errors.As(err, &pf) {
		t.Errorf("desync misdiagnosed as peer failure: %v", err)
	}
}

func TestChaosDesyncStillDetectedConcurrent(t *testing.T) {
	tr := model.UCFTestbedN(3)
	eng := NewConcurrent(tr)
	eng.desyncTimeout = 200 * time.Millisecond
	eng.Chaos = &fabric.ChaosPlan{
		Seed: 3, Drop: 0.1,
		Stragglers: []fabric.Straggler{{Pid: 1, FromStep: 0, ToStep: 9, Factor: 4}},
	}
	_, err := eng.Run(desyncProg)
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("run error = %v, want ErrDesync", err)
	}
}

// An AtTime crash is the virtual-clock flavor: the victim dies at the
// first sync boundary its clock has passed the trigger.
func TestChaosAtTimeCrashVirtual(t *testing.T) {
	tr := model.Homogeneous(2, 10)
	plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: -1, AtTime: 150}}}
	_, err := runChaos(tr, fabric.PureModel(), plan, crashProg(5, 100))
	var pf *ErrPeerFailed
	if !errors.As(err, &pf) {
		t.Fatalf("run error = %v, want ErrPeerFailed", err)
	}
	if pf.Pid != 1 {
		t.Errorf("failure pid = %d, want 1", pf.Pid)
	}
}

// Message fates hash the same identities in both engines, so a plan
// with drops and duplicates (no delays — those count different clocks)
// yields identical deliveries, and identical step terms: a dropped
// message is charged once and a duplicate twice on both.
func TestChaosEnginesAgreeOnMessageFates(t *testing.T) {
	tr := model.UCFTestbedN(5)
	sched := buildSchedule(99, 5, 3)
	plan := &fabric.ChaosPlan{Seed: 9, Drop: 0.3, Duplicate: 0.25}
	virt, vrep := runSchedule(t, tr, sched, func(prog Program) (*trace.Report, error) {
		return runChaos(tr, fabric.PureModel(), plan, prog)
	})
	eng := NewConcurrent(tr)
	eng.Chaos = plan
	conc, crep := runSchedule(t, tr, sched, eng.Run)
	if err := sameTerms(vrep, crep); err != nil {
		t.Errorf("step terms differ under identical chaos plan, virtual then concurrent: %v", err)
	}
	for pid := range virt {
		if !bytes.Equal(virt[pid], conc[pid]) {
			t.Errorf("p%d digests differ under identical chaos plan:\nvirtual:    %v\nconcurrent: %v",
				pid, virt[pid], conc[pid])
		}
	}
}

// A crash burns a generation on every survivor (the notice) after some of
// them deposited their share of the failed step; the steps after it
// complete over the survivors, recorded by the coordinator or, when the
// coordinator is the victim, by its successor, and carry the same terms
// on both engines.
func TestChaosEnginesAgreeOnTermsAcrossACrash(t *testing.T) {
	tr := model.UCFTestbedN(5)
	prog := func(c Ctx) error {
		for r := 0; r < 4; r++ {
			for dst := 0; dst < c.NProcs(); dst++ {
				if dst != c.Pid() {
					if err := c.Send(dst, r, make([]byte, 16*(c.Pid()+1))); err != nil {
						return err
					}
				}
			}
			c.Charge(float64(10 * (c.Pid() + 1)))
			err := SyncAll(c, fmt.Sprintf("round%d", r))
			var pf *ErrPeerFailed
			if errors.As(err, &pf) {
				err = SyncAll(c, fmt.Sprintf("round%d again", r))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, victim := range []int{3, tr.Pid(tr.Root.Coordinator())} {
		plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: victim, AtStep: 1}}}
		vrep, err := runChaos(tr, fabric.PureModel(), plan, prog)
		if err != nil {
			t.Fatalf("virtual, p%d crashing: %v", victim, err)
		}
		eng := NewConcurrent(tr)
		eng.Chaos = plan
		crep, err := eng.Run(prog)
		if err != nil {
			t.Fatalf("concurrent, p%d crashing: %v", victim, err)
		}
		if err := sameTerms(vrep, crep); err != nil {
			t.Errorf("p%d crashing: virtual, then concurrent: %v", victim, err)
		}
	}
}

// A Concurrent step's times are read by the processor that records it,
// the scope's live coordinator, and by nobody else unless an observer
// needs them. Whoever the role fails over to — a survivor when the
// coordinator crashes — must read both: every recorded step has
// 0 < Start ≤ End and Time = End − Start, and a recorder's steps follow
// one another on its clock.
func TestStepTimesFollowTheLiveCoordinator(t *testing.T) {
	tr := model.UCFTestbedN(4)
	coord := tr.Pid(tr.Root.Coordinator())
	// rounds successful root syncs, each retried once per absorbed notice.
	prog := func(rounds int) Program {
		return func(c Ctx) error {
			for done := 0; done < rounds; {
				err := SyncAll(c, fmt.Sprintf("step%d", done))
				var pf *ErrPeerFailed
				switch {
				case err == nil:
					done++
				case !errors.As(err, &pf):
					return err
				}
			}
			return nil
		}
	}
	const rounds = 6
	for _, tc := range []struct {
		name     string
		plan     *fabric.ChaosPlan
		wantLast int // participants of the last step
	}{
		{"coordinator crashes", &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: coord, AtStep: 2}}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewConcurrent(tr)
			eng.Chaos = tc.plan
			rep, err := eng.Run(prog(rounds))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(rep.Steps) != rounds {
				t.Fatalf("%d steps recorded, want %d", len(rep.Steps), rounds)
			}
			if last := rep.Steps[len(rep.Steps)-1]; last.Participants != tc.wantLast {
				t.Errorf("last step has %d participants, want %d", last.Participants, tc.wantLast)
			}
			var prev trace.Step
			for i, s := range rep.Steps {
				// Time is the span taken in nanoseconds, Start and End each
				// converted to microseconds: equal to a picosecond.
				if !(0 < s.Start && s.Start <= s.End) || math.Abs(s.Time-(s.End-s.Start)) > 1e-6 {
					t.Errorf("step %d (%d participants): start %v end %v time %v, want 0 < start ≤ end and time = end − start",
						i, s.Participants, s.Start, s.End, s.Time)
				}
				// Steps of one participant count come from one recorder.
				if i > 0 && s.Participants == prev.Participants && s.Start < prev.End {
					t.Errorf("step %d starts at %v, before step %d of the same recorder ended at %v", i, s.Start, i-1, prev.End)
				}
				prev = s
			}
		})
	}
}
