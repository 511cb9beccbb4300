// Package uncheckedrun is the golden fixture for the uncheckedrun
// analyzer: stub engines, Ctx, pvm types and collectives with seeded
// dropped errors.
package uncheckedrun

import (
	"fmt"
	"time"
)

type Machine struct{}

type Tree struct{ Root *Machine }

type Report struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

type Program func(Ctx) error

type Virtual struct{}

type ScheduleSet struct{}

func (v *Virtual) Run(prog Program) (*Report, error) { return nil, nil }
func (v *Virtual) RunSchedules(prog Program, n int, seed int64) (*ScheduleSet, error) {
	return nil, nil
}

type ChaosPlan struct{}

func RunVirtual(t *Tree, prog Program) (*Report, error) { return nil, nil }

func RunVirtualChaos(t *Tree, plan *ChaosPlan, prog Program) (*Report, error) { return nil, nil }

func SyncAll(c Ctx, label string) error { return c.Sync(nil, label) }

func Gather(c Ctx, scope *Machine, root int, local []byte) (map[int][]byte, error) {
	return nil, nil
}

func AllGather(c Ctx, scope *Machine, local []byte) (map[int][]byte, error) {
	return nil, nil
}

type Planner struct{}

func PlannedBcast(c Ctx, p *Planner, n int, data []byte) ([]byte, error) { return data, nil }

type FT struct{}

func (f *FT) Bcast(root int, data []byte) ([]byte, error) { return data, nil }

type TID int

type Buffer struct{}

type Task struct{}

type Batch struct {
	Dst  TID
	Bufs []*Buffer
}

func (t *Task) Send(dst TID, tag int, buf *Buffer) error         { return nil }
func (t *Task) SendBatch(dst TID, tag int, bufs []*Buffer) error { return nil }
func (t *Task) SendBatches(tag int, batches []Batch) error       { return nil }
func (t *Task) Flush() error                                     { return nil }
func (t *Task) Barrier(name string, count int) error             { return nil }
func (t *Task) BarrierTimeout(name string, count int, d time.Duration) error {
	return nil
}
func (t *Task) BarrierExchange(name string, count int, d time.Duration, deposit []byte) (map[TID][]byte, error) {
	return nil, nil
}

type BarrierRef struct{ Name string }

func (t *Task) Arrive(r *BarrierRef, count int, d time.Duration, deposit []byte) (map[TID][]byte, error) {
	return nil, nil
}

type System struct{}

func (s *System) Wait() error { return nil }

// --- violations ---

func dropSync(c Ctx, scope *Machine) {
	c.Sync(scope, "step") // want `error result of Sync is dropped`
}

func dropSend(c Ctx) {
	c.Send(1, 0, nil) // want `error result of Send is dropped`
}

func dropSyncAll(c Ctx) {
	SyncAll(c, "global") // want `error result of SyncAll is dropped`
}

func dropEngineRun(v *Virtual, prog Program) {
	v.Run(prog) // want `error result of Run is dropped`
}

func dropFacadeRun(t *Tree, prog Program) {
	RunVirtual(t, prog) // want `error result of RunVirtual is dropped`
}

func dropCollective(c Ctx, scope *Machine) {
	Gather(c, scope, 0, nil) // want `error result of Gather is dropped`
}

func dropPlanned(c Ctx, p *Planner, data []byte) {
	PlannedBcast(c, p, len(data), data) // want `error result of PlannedBcast is dropped`
}

func dropFT(ft *FT, data []byte) {
	ft.Bcast(0, data) // want `error result of Bcast is dropped`
}

func dropBarrier(t *Task) {
	t.Barrier("b", 4) // want `error result of Barrier is dropped`
}

func dropSendBatch(t *Task, bufs []*Buffer) {
	t.SendBatch(1, 0, bufs) // want `error result of SendBatch is dropped`
}

func dropSendBatches(t *Task, batches []Batch) {
	t.SendBatches(0, batches) // want `error result of SendBatches is dropped`
}

func dropFlush(t *Task) {
	defer t.Flush() // want `error result of Flush is dropped`
}

func dropBarrierTimeout(t *Task) {
	t.BarrierTimeout("b", 4, time.Second) // want `error result of BarrierTimeout is dropped`
}

func dropBarrierExchange(t *Task, clock []byte) {
	t.BarrierExchange("b", 4, 0, clock) // want `error result of BarrierExchange is dropped`
}

func dropArrive(t *Task, r *BarrierRef) {
	t.Arrive(r, 4, 0, nil) // want `error result of Arrive is dropped`
}

func dropChaosRun(t *Tree, plan *ChaosPlan, prog Program) {
	RunVirtualChaos(t, plan, prog) // want `error result of RunVirtualChaos is dropped`
}

func dropSchedules(v *Virtual, prog Program) {
	v.RunSchedules(prog, 8, 1) // want `error result of RunSchedules is dropped`
}

func dropWait(s *System) {
	s.Wait() // want `error result of Wait is dropped`
}

func dropInGoroutine(c Ctx, scope *Machine) {
	go c.Sync(scope, "racing") // want `error result of Sync is dropped`
}

func blankErrorKeptResult(c Ctx, scope *Machine) int {
	parts, _ := AllGather(c, scope, nil) // want `error result of AllGather is dropped`
	return len(parts)
}

// --- checked uses ---

func checkedSync(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "step"); err != nil {
		return err
	}
	return nil
}

func checkedRun(v *Virtual, prog Program) error {
	_, err := v.Run(prog)
	return err
}

func deliberateDiscard(c Ctx, scope *Machine) {
	// An explicit blank assignment is a visible decision, not a drop.
	_ = c.Sync(scope, "fire and forget")
	_, _ = AllGather(c, scope, nil)
}

func unrelatedCallsAreFine() {
	fmt.Println("logging is not part of the model surface")
}

func unrelatedRunIsFine() {
	run() // a local helper named run is not the facade
}

func run() error { return nil }
