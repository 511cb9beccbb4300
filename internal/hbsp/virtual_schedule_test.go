package hbsp

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// soloCtx counts the programs in flight: a processor is in flight from
// its start, or its return from a Sync, to its next Sync or its exit.
type soloCtx struct {
	Ctx
	inflight, peak *atomic.Int32
}

func (s soloCtx) enter() {
	n := s.inflight.Add(1)
	for old := s.peak.Load(); n > old && !s.peak.CompareAndSwap(old, n); old = s.peak.Load() {
	}
}

func (s soloCtx) Sync(scope *model.Machine, label string) error {
	s.inflight.Add(-1)
	err := s.Ctx.Sync(scope, label)
	s.enter()
	return err
}

// The rule every ordering guarantee of Virtual rests on: the coordinator
// never has two processors runnable — through starts, resumes, failure
// notices and the run's teardown.
func TestVirtualRunsOneProcessorAtATime(t *testing.T) {
	tr := model.WideAreaGrid(3, 4, 12, 25000, 250000)
	eng := NewVirtual(tr, fabric.New(tr, pvmNoisy(0.2, 3)))
	eng.Chaos = &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 5, AtStep: 3}}}
	var inflight, peak atomic.Int32
	_, err := eng.Run(func(c Ctx) error {
		s := soloCtx{c, &inflight, &peak}
		s.enter()
		defer inflight.Add(-1)
		for round := 0; round < 6; round++ {
			for _, scope := range []*model.Machine{s.Tree().ScopeAt(s.Self(), 1), s.Tree().Root} {
				runtime.Gosched() // let anyone else who could run, run
				s.Charge(10)
				err := s.Sync(scope, "round")
				var pf *ErrPeerFailed
				for errors.As(err, &pf) {
					runtime.Gosched()
					err = s.Sync(scope, "retry")
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d processors were runnable at once, want never more than 1", got)
	}
}
