package collective

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// The chaos matrix: every fault-tolerant collective, under every fault
// class, on both engines, with fixed seeds. The contract it enforces is
// the issue's acceptance bar — a faulted run may only end in a correct
// survivor-set result or a typed error (ErrPeerFailed, ErrTimeout,
// ErrLost, ErrDesync); it must never deadlock and never return wrong
// data.

const matrixP = 4

func ftPayload(pid int) []byte { return []byte{byte(pid), 0x5A, byte(pid * 3)} }
func vecFor(pid int) []int64   { return []int64{int64(pid), 1, int64(pid * pid)} }

func sumVecs(pids []int) []int64 {
	acc := []int64{0, 0, 0}
	for _, pid := range pids {
		for i, x := range vecFor(pid) {
			acc[i] += x
		}
	}
	return acc
}

// cellOutcome is one processor's result from one matrix cell.
type cellOutcome struct {
	err  error
	root int
	// pieces for gather (root only), data for bcast, vec for
	// reduce/allreduce.
	pieces map[int][]byte
	data   []byte
	vec    []int64
}

type outcomes struct {
	mu  sync.Mutex
	by  map[int]*cellOutcome
	ftl map[int][]int // Live() view at return, per pid
}

func newOutcomes() *outcomes {
	return &outcomes{by: make(map[int]*cellOutcome), ftl: make(map[int][]int)}
}

func (o *outcomes) record(pid int, out *cellOutcome, live []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.by[pid] = out
	o.ftl[pid] = live
}

// matrixOps builds, per collective op, a program that runs the
// fault-tolerant version once and records the outcome. The bcast source
// is pid 0's data unless the plan kills pid 0 (then the matrix still
// runs it: the oracle accepts an all-ErrLost outcome there).
var matrixOps = []struct {
	name string
	prog func(o *outcomes) hbsp.Program
}{
	{"gather", func(o *outcomes) hbsp.Program {
		return func(c hbsp.Ctx) error {
			ft := NewFT(c, c.Tree().Root)
			pieces, root, err := ft.Gather(ftPayload(c.Pid()))
			o.record(c.Pid(), &cellOutcome{err: err, root: root, pieces: pieces}, ft.Live())
			return err
		}
	}},
	{"bcast", func(o *outcomes) hbsp.Program {
		return func(c hbsp.Ctx) error {
			ft := NewFT(c, c.Tree().Root)
			data, err := ft.Bcast(0, ftPayload(0))
			o.record(c.Pid(), &cellOutcome{err: err, data: data}, ft.Live())
			return err
		}
	}},
	{"reduce", func(o *outcomes) hbsp.Program {
		return func(c hbsp.Ctx) error {
			ft := NewFT(c, c.Tree().Root)
			vec, root, err := ft.Reduce(vecFor(c.Pid()), Sum)
			o.record(c.Pid(), &cellOutcome{err: err, root: root, vec: vec}, ft.Live())
			return err
		}
	}},
	{"allreduce", func(o *outcomes) hbsp.Program {
		return func(c hbsp.Ctx) error {
			ft := NewFT(c, c.Tree().Root)
			vec, err := ft.AllReduce(vecFor(c.Pid()), Sum)
			o.record(c.Pid(), &cellOutcome{err: err, vec: vec}, ft.Live())
			return err
		}
	}},
}

// matrixPlans: the fault classes. victims lists the pids the plan
// crash-stops (the expected final dead set).
var matrixPlans = []struct {
	name    string
	plan    *fabric.ChaosPlan
	victims []int
}{
	{"none", &fabric.ChaosPlan{}, nil},
	{"crash-member", &fabric.ChaosPlan{
		Crashes: []fabric.Crash{{Pid: 3, AtStep: 1}},
	}, []int{3}},
	{"crash-coordinator", &fabric.ChaosPlan{
		Crashes: []fabric.Crash{{Pid: 0, AtStep: 1}},
	}, []int{0}},
	{"crash-two", &fabric.ChaosPlan{
		Crashes: []fabric.Crash{{Pid: 1, AtStep: 1}, {Pid: 3, AtStep: 2}},
	}, []int{1, 3}},
	{"duplicate", &fabric.ChaosPlan{Seed: 21, Duplicate: 0.5}, nil},
	{"delay", &fabric.ChaosPlan{Seed: 22, Delay: 0.3, DelaySteps: 1}, nil},
	{"straggler-noise", &fabric.ChaosPlan{
		Seed:       23,
		Duplicate:  0.2,
		Stragglers: []fabric.Straggler{{Pid: 2, FromStep: 0, ToStep: 6, Factor: 3}},
	}, nil},
}

var matrixEngines = []struct {
	name string
	run  func(plan *fabric.ChaosPlan, prog hbsp.Program) error
}{
	{"virtual", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		tr := model.UCFTestbedN(matrixP)
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = plan
		_, err := eng.Run(prog)
		return err
	}},
	{"concurrent", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		eng := hbsp.NewConcurrent(model.UCFTestbedN(matrixP))
		eng.Chaos = plan
		_, err := eng.Run(prog)
		return err
	}},
}

// typedFault reports whether err is one of the taxonomy's typed
// verdicts — the only errors a faulted run is allowed to surface.
func typedFault(err error) bool {
	var pf *hbsp.ErrPeerFailed
	return errors.As(err, &pf) ||
		errors.Is(err, hbsp.ErrTimeout) ||
		errors.Is(err, hbsp.ErrDesync) ||
		errors.Is(err, ErrLost)
}

func pidSet(pids []int) map[int]bool {
	m := make(map[int]bool, len(pids))
	for _, pid := range pids {
		m[pid] = true
	}
	return m
}

func TestChaosMatrixCollectives(t *testing.T) {
	for _, eng := range matrixEngines {
		for _, plan := range matrixPlans {
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

// checkCell applies the per-op oracle over the recorded outcomes.
func checkCell(t *testing.T, op string, victims []int, o *outcomes, runErr error) {
	t.Helper()
	dead := pidSet(victims)
	bcastSourceDead := dead[0]

	if runErr != nil && !typedFault(runErr) &&
		!strings.Contains(runErr.Error(), "gave up") {
		t.Fatalf("run error is not a typed fault: %v", runErr)
	}

	var survivors []int
	for pid := 0; pid < matrixP; pid++ {
		if !dead[pid] {
			survivors = append(survivors, pid)
		}
	}

	for _, pid := range survivors {
		out := o.by[pid]
		if out == nil {
			t.Fatalf("survivor p%d recorded no outcome (hung or never ran)", pid)
		}
		if out.err != nil {
			if !typedFault(out.err) && !strings.Contains(out.err.Error(), "gave up") {
				t.Errorf("survivor p%d returned an untyped error: %v", pid, out.err)
			}
			if op == "bcast" && bcastSourceDead && !errors.Is(out.err, ErrLost) {
				t.Errorf("bcast with dead source: p%d err = %v, want ErrLost", pid, out.err)
			}
			continue
		}

		// Success: the data must be exactly right for the survivor set
		// the processor reported at return time.
		live := o.ftl[pid]
		switch op {
		case "gather":
			if out.root < 0 || dead[out.root] {
				t.Errorf("gather: p%d returned root %d, which is dead or invalid", pid, out.root)
			}
			if pid == out.root {
				for _, lp := range live {
					want := ftPayload(lp)
					if got, ok := out.pieces[lp]; !ok || !bytes.Equal(got, want) {
						t.Errorf("gather root p%d: piece[%d] = %v, want %v", pid, lp, got, want)
					}
				}
				// Extra pieces (from members that died after
				// contributing) must still be the correct bytes —
				// shrink re-scopes, it never corrupts.
				for src, got := range out.pieces {
					if !bytes.Equal(got, ftPayload(src)) {
						t.Errorf("gather root p%d: corrupted piece[%d] = %v", pid, src, got)
					}
				}
			}
		case "bcast":
			if bcastSourceDead {
				// The source may have died after someone got a copy; a
				// success is then legal, but the data must be right.
			}
			if !bytes.Equal(out.data, ftPayload(0)) {
				t.Errorf("bcast: p%d returned %v, want %v", pid, out.data, ftPayload(0))
			}
		case "reduce":
			if out.root < 0 || dead[out.root] {
				t.Errorf("reduce: p%d returned root %d, which is dead or invalid", pid, out.root)
			}
			if pid == out.root {
				if !vecOK(out.vec, live, survivors) {
					t.Errorf("reduce root p%d: result %v matches neither live-set %v nor full-set %v",
						pid, out.vec, sumVecs(live), sumVecs(allPids()))
				}
			}
		case "allreduce":
			if !vecOK(out.vec, live, survivors) {
				t.Errorf("allreduce p%d: result %v matches neither live-set %v nor full-set %v",
					pid, out.vec, sumVecs(live), sumVecs(allPids()))
			}
		}
	}

	// Survivor consistency: every pair of successful survivors agrees on
	// roots and allreduce results.
	var okPids []int
	for _, pid := range survivors {
		if o.by[pid] != nil && o.by[pid].err == nil {
			okPids = append(okPids, pid)
		}
	}
	for i := 1; i < len(okPids); i++ {
		a, b := o.by[okPids[0]], o.by[okPids[i]]
		if op == "gather" || op == "reduce" {
			if a.root != b.root {
				t.Errorf("%s: p%d and p%d disagree on the coordinator: %d vs %d",
					op, okPids[0], okPids[i], a.root, b.root)
			}
		}
		if op == "allreduce" && !int64sEq(a.vec, b.vec) {
			t.Errorf("allreduce: p%d and p%d returned different results: %v vs %v",
				okPids[0], okPids[i], a.vec, b.vec)
		}
	}
}

func allPids() []int {
	out := make([]int, matrixP)
	for i := range out {
		out[i] = i
	}
	return out
}

// vecOK accepts the fold over the member's live view or over the full
// original set: a victim that contributed before dying is correct data,
// not corruption.
func vecOK(got []int64, live, survivors []int) bool {
	return int64sEq(got, sumVecs(live)) ||
		int64sEq(got, sumVecs(survivors)) ||
		int64sEq(got, sumVecs(allPids()))
}

func int64sEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Killing the fastest machine forces re-election: the survivors'
// coordinator is the fastest *live* leaf, by the same
// fastest-in-subtree rule as the failure-free election.
func TestChaosReelectionWhenFastestDies(t *testing.T) {
	tr := model.UCFTestbedN(4)
	fastest := tr.Pid(tr.Root.Coordinator())
	if fastest != 0 {
		t.Fatalf("testbed fastest leaf is p%d, expected p0", fastest)
	}
	wantNext := tr.Pid(tr.Root.CoordinatorAmong(func(l *model.Machine) bool {
		return tr.Pid(l) != fastest
	}))
	if wantNext == fastest {
		t.Fatal("re-election produced the dead machine")
	}

	plan := &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: fastest, AtStep: 1}}}
	for _, eng := range matrixEngines {
		t.Run(eng.name, func(t *testing.T) {
			o := newOutcomes()
			prog := func(c hbsp.Ctx) error {
				ft := NewFT(c, c.Tree().Root)
				pieces, root, err := ft.Gather(ftPayload(c.Pid()))
				o.record(c.Pid(), &cellOutcome{err: err, root: root, pieces: pieces}, ft.Live())
				return err
			}
			if err := eng.run(plan, prog); err != nil {
				t.Fatalf("degraded gather failed: %v", err)
			}
			for pid := 1; pid < 4; pid++ {
				out := o.by[pid]
				if out == nil || out.err != nil {
					t.Fatalf("survivor p%d did not succeed: %+v", pid, out)
				}
				if out.root != wantNext {
					t.Errorf("p%d elected p%d, want next-fastest p%d", pid, out.root, wantNext)
				}
			}
			root := o.by[wantNext]
			for pid := 1; pid < 4; pid++ {
				if got := root.pieces[pid]; !bytes.Equal(got, ftPayload(pid)) {
					t.Errorf("re-elected root piece[%d] = %v, want %v", pid, got, ftPayload(pid))
				}
			}
		})
	}
}
