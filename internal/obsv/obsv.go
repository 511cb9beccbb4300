// Package obsv is the observability layer of HBSP^k: structured spans
// for supersteps, collectives, barriers and message deliveries, a
// metrics registry (counters, gauges, histograms) with a Prometheus
// text exporter, model-vs-measured cost attribution, and trace
// exporters (JSONL and Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto).
//
// The layer is built for a near-zero disabled cost: every emission
// helper is a method on *Recorder that no-ops on a nil receiver, so an
// engine holds a plain `*obsv.Recorder` field and the hot path pays one
// nil check when observability is off. When on, events land in a
// lock-free ring buffer of inline records — the ring's slots are the
// event pool, so steady-state emission allocates nothing — and a
// sampling knob thins the highest-volume span kind (message
// deliveries).
//
// Time base: events carry the emitting engine's clock — virtual time
// units for the Virtual engine, microseconds for the Concurrent engine
// and the pvm substrate — and a superstep's Pred is in model units on
// both, so on Concurrent AttribTable's meas/pred reads µs per model
// unit. Exporters pass the values through (Chrome trace timestamps are
// nominally microseconds; for virtual-clock runs the unit is "one
// fastest-machine time unit" instead).
package obsv

import (
	"sync/atomic"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindSuperstep is one completed super^i-step: Start/End bound the
	// step on the engine clock, Pred carries the cost model's predicted
	// T_i(λ) for the same step, Bytes its delivered traffic.
	KindSuperstep Kind = iota + 1
	// KindCollective is one collective-library call on one processor
	// (wall-clock bounds; collectives span several supersteps).
	KindCollective
	// KindBarrier is one processor's wait inside a Sync: Start is the
	// moment the processor entered the barrier, End the moment the step
	// completed; End-Start is the barrier-wait the processor paid.
	KindBarrier
	// KindDelivery is one delivered message (sampled by SampleEvery).
	KindDelivery
	// KindChaos is one observed fault injection (drop, duplicate,
	// delay, crash, straggler); Name carries the fate.
	KindChaos
	// KindReorg is one barrier-time tree reorganization, applied (Name
	// "reorg") or deferred past a collective ("reorg-deferred"): Step
	// carries the reorg epoch, Src the number of leaves that changed
	// slots.
	KindReorg
	// KindPick is one planner variant selection (DESIGN.md §5.9): Name
	// carries "family->Variant", Bytes the payload size the decision
	// was made for, Pred the closed-form model cost that won.
	KindPick
)

// String returns the kind's wire name (used by every exporter).
func (k Kind) String() string {
	switch k {
	case KindSuperstep:
		return "superstep"
	case KindCollective:
		return "collective"
	case KindBarrier:
		return "barrier"
	case KindDelivery:
		return "delivery"
	case KindChaos:
		return "chaos"
	case KindReorg:
		return "reorg"
	case KindPick:
		return "pick"
	}
	return "unknown"
}

// Event is one recorded span or point event. The struct is stored
// inline in the ring's slots; emission copies it by value and never
// allocates.
type Event struct {
	Kind Kind
	// Step is the superstep index the event belongs to (-1 = unknown,
	// e.g. a collective span covering several steps).
	Step int32
	// Pid is the processor the event describes (-1 = engine-wide).
	Pid int32
	// Src, Dst, Tag identify a message for delivery/chaos events
	// (-1 = not applicable).
	Src, Dst, Tag int32
	// Level is the scope level i of a superstep/barrier event.
	Level int32
	// Bytes is the traffic the event accounts for.
	Bytes int64
	// Start and End bound the event on the emitting engine's clock;
	// point events set End = Start.
	Start, End float64
	// Pred is the cost model's predicted T_i(λ) for superstep spans
	// (0 elsewhere).
	Pred float64
	// Name labels the event: the superstep label, collective name, or
	// chaos fate.
	Name string
	// Scope is the scope machine's label for superstep/barrier events.
	Scope string
}

// Dur returns the event's span length on its engine clock.
func (e Event) Dur() float64 { return e.End - e.Start }

// ring is a lock-free bounded MPMC event buffer keeping the most
// recent Capacity events. Writers claim a slot with an atomic ticket
// and guard the write with a per-slot sequence (odd = write in
// progress); a writer that catches a wrapped slot still being written
// drops its event instead of blocking — emission never waits.
type ring struct {
	slots []ringSlot
	mask  uint64
	next  atomic.Uint64 // tickets issued = events offered
}

type ringSlot struct {
	// seq is even when the slot is stable (2·(ticket+1) of the event it
	// holds, 0 when empty) and odd while a writer owns it.
	seq atomic.Uint64
	ev  Event
}

func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{slots: make([]ringSlot, n), mask: uint64(n - 1)}
}

// put records one event. Lock-free: a slot whose previous tenant is
// still mid-write (the ring wrapped a full lap during that write) is
// abandoned and the event dropped.
func (r *ring) put(ev Event) {
	ticket := r.next.Add(1) - 1
	s := &r.slots[ticket&r.mask]
	old := s.seq.Load()
	if old&1 == 1 || !s.seq.CompareAndSwap(old, old|1) {
		return
	}
	s.ev = ev
	s.seq.Store(2 * (ticket + 1))
}

// held calls visit, in emission order, for each of the most recent
// len(slots) offered events that is still in its slot, and returns how
// many events were ever offered. It must not race active writers
// (exporters run after the engines quiesce); a slot overwritten by
// another lap, abandoned on a collision or observed mid-write is
// skipped rather than torn.
func (r *ring) held(visit func(*Event)) (offered uint64) {
	total := r.next.Load()
	for ticket := total - min(total, uint64(len(r.slots))); ticket < total; ticket++ {
		s := &r.slots[ticket&r.mask]
		if s.seq.Load() == 2*(ticket+1) {
			visit(&s.ev)
		}
	}
	return total
}

// snapshot returns the buffered events in emission order.
func (r *ring) snapshot() []Event {
	out := make([]Event, 0, min(r.next.Load(), uint64(len(r.slots))))
	r.held(func(ev *Event) { out = append(out, *ev) })
	return out
}

// lost returns how many offered events snapshot would not return:
// overwritten by newer laps or dropped on a write collision. Counting
// what is held, not the collisions, is what keeps kept + lost equal to
// offered — a dropped event's slot is overwritten by later laps too.
func (r *ring) lost() uint64 {
	kept := uint64(0)
	offered := r.held(func(*Event) { kept++ })
	return offered - kept
}
