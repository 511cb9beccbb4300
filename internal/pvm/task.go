package pvm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TID identifies a spawned task, PVM-style.
type TID int

// AnySource and AnyTag are the wildcards of selective receive.
const (
	AnySource TID = -1
	AnyTag    int = -1
)

// Message is a delivered packed buffer. It holds a reference on a wire
// of the arena — the sender's packed buffer, or for a message a
// transport injected the frame it arrived in — and its payload aliases
// that wire: treat it as read-only, and call Release once done with it
// to return the wire to the arena. Only a message handed to
// Transport.Deliver may be in two pieces (Pieces), or carry the More
// mark.
type Message struct {
	Src TID
	Tag int
	// More is the MSG_MORE of send(2), set on every message of a batch
	// whose sender posts another batch in the same call (SendBatches): a
	// transport may hold such a batch until the sender's next unmarked one.
	More bool
	buf  []byte
	w    *wire
	seq  uint64 // per-mailbox arrival stamp, orders wildcard matches
}

// Pieces returns the message's wire bytes in order: head, then the tail
// its sender lent (Buffer.PackBytesBorrowed), which only a message on its
// way through a transport has. Neither outlives Release.
func (m Message) Pieces() (head, tail []byte) {
	if m.w != nil {
		tail = m.w.tail
	}
	return m.buf, tail
}

// Buffer returns an unpacker positioned at the start of the message.
// The unpacker aliases the message's wire bytes: it is only valid
// until Release, and must not itself be sent. A message still in two
// pieces has no contiguous bytes to unpack, and panics.
func (m Message) Buffer() *Buffer {
	if _, tail := m.Pieces(); len(tail) > 0 {
		panic("pvm: Message.Buffer on a message with a borrowed tail; a transport reads it with Pieces")
	}
	return bufferFrom(m.buf)
}

// Len returns the message's wire length in bytes, both pieces.
func (m Message) Len() int { _, tail := m.Pieces(); return len(m.buf) + len(tail) }

// Release drops the message's reference on its wire, which goes back to
// the arena with its last one. Call it at most once, after the payload
// (and anything unpacked from it, which aliases the same bytes) is no
// longer needed. A message nobody releases is left to the garbage
// collector, wire and all: not recycled, but not leaked either.
func (m Message) Release() { m.w.release() }

// ErrHalted is returned by blocking operations after Halt.
var ErrHalted = errors.New("pvm: system halted")

// ErrTimeout is returned by deadline-bounded blocking operations
// (RecvTimeout) when the deadline expires before the operation
// completes.
var ErrTimeout = errors.New("pvm: operation timed out")

// ErrCanceled is returned by Barrier waiters whose barrier was torn
// down with CancelBarrier before it completed.
var ErrCanceled = errors.New("pvm: barrier canceled")

// System is the virtual machine: it spawns tasks, routes messages and
// hosts group barriers.
type System struct {
	// mu guards spawning, halting and the barrier table. The send path
	// never takes it: tasks is the task table by TID, dense from 0 and
	// never shrinking, which Spawn republishes whole under mu and every
	// lookup reads with one atomic load.
	mu       sync.Mutex
	tasks    atomic.Pointer[[]*Task]
	halted   bool
	wg       sync.WaitGroup
	barriers map[string]barrierRef
	bfree    []barrierRef // retired barriers, each at the life it is drawn at

	errMu sync.Mutex
	errs  []error

	// transport, when non-nil, owns message delivery (SetTransport).
	// Written once before any Spawn; read without synchronization on
	// the send path. carrier is the same transport when it also takes
	// the tasks' barrier arrivals (BarrierCarrier), else nil.
	transport Transport
	carrier   BarrierCarrier
}

// NewSystem returns an empty virtual machine.
func NewSystem() *System {
	s := &System{barriers: make(map[string]barrierRef)}
	s.tasks.Store(new([]*Task))
	return s
}

// Spawn starts fn as a new task and returns its TID. A panic inside fn
// is recovered and reported by Wait; an error return is likewise
// collected.
func (s *System) Spawn(name string, fn func(*Task) error) TID {
	s.mu.Lock()
	tasks := *s.tasks.Load()
	tid := TID(len(tasks))
	t := &Task{tid: tid, name: name, sys: s, halted: s.halted}
	t.cond = sync.NewCond(&t.sendMu)
	t.queues = make(map[mkey]*msgq)
	// A reader holds a table no longer than it was when loaded, so the
	// slot the append writes is one no reader of the old table reads.
	tasks = append(tasks, t)
	s.tasks.Store(&tasks)
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.report(fmt.Errorf("pvm: task %d (%s) panicked: %v", tid, name, r))
			}
		}()
		err := fn(t)
		// A returning task's posted sends must not fail silently.
		if ferr := t.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			s.report(fmt.Errorf("pvm: task %d (%s): %w", tid, name, err))
		}
	}()
	return tid
}

func (s *System) report(err error) {
	s.errMu.Lock()
	s.errs = append(s.errs, err)
	s.errMu.Unlock()
}

// Wait blocks until every spawned task has returned and reports the
// first collected error.
func (s *System) Wait() error {
	s.wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}

// Errors returns all collected task errors after Wait.
func (s *System) Errors() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]error(nil), s.errs...)
}

// Halt wakes every blocked receive and barrier with ErrHalted. Used to
// tear down a wedged system in tests and error paths.
func (s *System) Halt() {
	s.mu.Lock()
	s.halted = true
	tasks := *s.tasks.Load()
	barriers := make([]*barrier, 0, len(s.barriers))
	for _, ref := range s.barriers {
		barriers = append(barriers, ref.b)
	}
	s.mu.Unlock()
	for _, t := range tasks {
		t.sendMu.Lock()
		t.halted = true
		t.cond.Broadcast()
		t.sendMu.Unlock()
	}
	for _, b := range barriers {
		b.mu.Lock()
		b.halted = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

func (s *System) task(tid TID) (*Task, error) {
	tasks := *s.tasks.Load()
	if tid < 0 || int(tid) >= len(tasks) {
		return nil, fmt.Errorf("pvm: no such task %d", tid)
	}
	return tasks[tid], nil
}

// Task is one spawned process: a goroutine plus a selective-receive
// mailbox. The mailbox is split in two so senders and the receiver do
// not serialize: senders append to a staging slice under sendMu, the
// receiving side drains the staging into per-(src, tag) indexed queues
// under recvMu and matches against the index.
type Task struct {
	tid  TID
	name string
	sys  *System

	// Sender side: the staging queue, arrival stamping, the halt flag
	// and the wakeup cond live under sendMu. seq doubles as the staging
	// version a parked receiver watches for.
	sendMu sync.Mutex
	cond   *sync.Cond
	staged []Message
	seq    uint64
	halted bool

	// Receiver side: recvMu serializes receivers and guards the index.
	// Lock order is recvMu before sendMu; sendMu is never held while
	// taking recvMu.
	queues map[mkey]*msgq
	passed []Message // what the last AppendRecvAll walked past: newer than the index, older than staged
	spare  []Message // recycled staging backing, ping-ponged with staged
	qfree  []*msgq   // recycled queue records (wire tags churn per superstep)
	recvMu sync.Mutex

	// Scratch of SendBatches, reused across calls; sends come from one
	// goroutine at a time.
	targets []*Task
	ms      []Message
}

// TID returns the task's identity.
func (t *Task) TID() TID { return t.tid }

// Name returns the task's spawn name.
func (t *Task) Name() string { return t.name }

// Send enqueues the buffer at dst without copying: ownership of the
// packed bytes transfers to the receiver, which releases them back to
// the arena. Delivery is reliable and per-sender ordered. A buffer can
// be sent only once: a second send returns an error, and a pack into it
// afterwards panics. A slice the buffer borrowed
// (PackBytesBorrowed) is the caller's again when the send returns.
// Sending to a halted system or an unknown task returns an error.
func (t *Task) Send(dst TID, tag int, buf *Buffer) error {
	target, err := t.sys.task(dst)
	if err != nil {
		return err
	}
	tr := t.sys.transport
	w, err := buf.adopt(tr != nil)
	if err != nil {
		return err
	}
	m := Message{Src: t.tid, Tag: tag, buf: buf.data, w: w}
	if tr != nil {
		return tr.Deliver(dst, []Message{m})
	}
	return target.deliverOne(m)
}

// Batch is one destination's share of a SendBatches call.
type Batch struct {
	Dst  TID
	Bufs []*Buffer
}

// SendBatch is SendBatches to one destination.
func (t *Task) SendBatch(dst TID, tag int, bufs []*Buffer) error {
	return t.SendBatches(tag, []Batch{{Dst: dst, Bufs: bufs}})
}

// SendBatches posts every batch in slice order: one message per buffer,
// a destination's under a single mailbox lock acquisition. Each buffer
// is adopted exactly as in Send. Every destination is resolved, and
// under a transport every buffer adopted, before anything is delivered,
// so an unknown TID or a spent buffer fails the call with nothing
// posted. A transport gets one Deliver per batch, all but the last
// marked More, so that it can write the whole call at once — possibly in
// a write another task's send makes, which this call waits for; a slice
// a buffer borrowed is the caller's again when the call returns. Like
// every send, it is called from one goroutine at a time per task.
func (t *Task) SendBatches(tag int, batches []Batch) error {
	t.targets = t.targets[:0]
	last := -1
	for i, b := range batches {
		var target *Task
		if len(b.Bufs) > 0 {
			var err error
			if target, err = t.sys.task(b.Dst); err != nil {
				return err
			}
			last = i
		}
		t.targets = append(t.targets, target)
	}
	tr := t.sys.transport
	if tr == nil {
		for i, b := range batches {
			if len(b.Bufs) == 0 {
				continue
			}
			if err := t.targets[i].deliverBatch(t.tid, tag, b.Bufs); err != nil {
				return err
			}
		}
		return nil
	}
	// The messages of the whole call, in a slice the task keeps: Deliver
	// hands each window of it back when it returns. The kept backing is
	// cleared so that it never pins a call's wires.
	ms := t.ms[:0]
	for i, b := range batches {
		for _, buf := range b.Bufs {
			w, err := buf.adopt(true)
			if err != nil {
				releaseAll(ms)
				clear(ms)
				return err
			}
			ms = append(ms, Message{Src: t.tid, Tag: tag, More: i < last, buf: buf.data, w: w})
		}
	}
	// Deliver consumes its batch, error or not, and a failed one has ended
	// the post; the untried rest is dropped here.
	var err error
	rest := ms
	for _, b := range batches {
		n := len(b.Bufs)
		if n == 0 {
			continue
		}
		if err == nil {
			err = tr.Deliver(b.Dst, rest[:n])
		} else {
			releaseAll(rest[:n])
		}
		rest = rest[n:]
	}
	clear(ms)
	t.ms = ms[:0]
	return err
}

func releaseAll(ms []Message) {
	for _, m := range ms {
		m.Release()
	}
}

// Flush returns once every message this task has sent is observable by
// its destination's receives, or with the first failure among them
// (Transport.Flush; in-proc sends are observable when they return).
// Barriers and task exit flush on their own.
func (t *Task) Flush() error {
	if tr := t.sys.transport; tr != nil {
		return tr.Flush(t.tid)
	}
	return nil
}

// Recv blocks until a message matching src and tag (either may be a
// wildcard) is available and removes it from the mailbox. Matching
// respects arrival order among matching messages.
func (t *Task) Recv(src TID, tag int) (Message, error) {
	for {
		m, ver, ok := t.recvOnce(src, tag)
		if ok {
			return m, nil
		}
		t.sendMu.Lock()
		for t.seq == ver && !t.halted {
			t.cond.Wait()
		}
		halted := t.halted && t.seq == ver
		t.sendMu.Unlock()
		if halted {
			return Message{}, ErrHalted
		}
	}
}

// RecvTimeout is Recv with a deadline: it blocks until a matching
// message arrives, the system halts, or d elapses, in which case it
// returns ErrTimeout. A non-positive d degrades to a non-blocking
// probe-and-fail.
func (t *Task) RecvTimeout(src TID, tag int, d time.Duration) (Message, error) {
	deadline := time.Now().Add(d)
	var timer *time.Timer
	if d > 0 {
		// The timer only wakes the cond; the loop re-checks the clock.
		timer = time.AfterFunc(d, func() {
			t.sendMu.Lock()
			t.cond.Broadcast()
			t.sendMu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		m, ver, ok := t.recvOnce(src, tag)
		if ok {
			return m, nil
		}
		t.sendMu.Lock()
		for t.seq == ver && !t.halted && time.Now().Before(deadline) {
			t.cond.Wait()
		}
		halted := t.halted && t.seq == ver
		t.sendMu.Unlock()
		if halted {
			return Message{}, ErrHalted
		}
		if !time.Now().Before(deadline) {
			// One final drain so a message racing the deadline wins.
			if m, _, ok := t.recvOnce(src, tag); ok {
				return m, nil
			}
			return Message{}, fmt.Errorf("pvm: recv(src=%d, tag=%d) after %v: %w", src, tag, d, ErrTimeout)
		}
	}
}

type barrier struct {
	mu       sync.Mutex
	cond     sync.Cond // on mu
	arrived  int
	gen      int
	inside   int // tasks between their arrival and their return, waiters included
	halted   bool
	canceled bool
	// life counts the barrier's retirements. The table names a barrier
	// together with the life it was published at (barrierRef), so whoever
	// looked it up before it was retired — and perhaps drawn again under
	// another name — finds a different life and starts over.
	life uint64
	// deposits collects the open round's BarrierExchange payloads, and is
	// nil until somebody makes one; on completion they move into results
	// keyed by the generation they belong to, reference-counted so late
	// wakers of an already-recycled barrier still find their round's data.
	// A round nobody deposited in leaves no trace in either.
	deposits map[TID][]byte
	results  map[int]*barrierResult
}

// barrierRef is a barrier at one life: what the table and the free list
// hold.
type barrierRef struct {
	b    *barrier
	life uint64
}

// maxFreeBarriers bounds the System's retired barriers kept for reuse.
const maxFreeBarriers = 16

// BarrierRef names a barrier and, once an arrival through it has found
// the barrier, holds it at the life it was found at, so that the next
// arrival of a cyclic barrier in steady use locks the barrier alone,
// without the System's table. A barrier retired since — and perhaps drawn
// again under another name — shows a different life, and the arrival
// looks its name up afresh. The zero value of a name's reference is one
// that has not found its barrier yet; a reference is used by one task at
// a time.
type BarrierRef struct {
	Name string
	at   barrierRef
}

// lockBarrier returns r's barrier with its mu held: the one r holds if it
// is still at the life r found it at, else the named one, published on
// first use — drawn from the retired ones when there is one — which r
// then holds. Arriving makes it fail on a halted system: in the critical
// section that would have published the barrier, or at a held barrier
// that Halt has reached (one it has not reached yet is, like an arrival
// that looked it up before the Halt, woken by it). System.mu is a leaf
// lock, so a looked-up barrier is locked only after the table is let go
// and may have been retired in between: its life says so and the lookup
// starts over — nobody arrives at, or cancels, an orphan.
func (s *System) lockBarrier(r *BarrierRef, arriving bool) (*barrier, error) {
	if b := r.at.b; b != nil {
		b.mu.Lock()
		if b.life == r.at.life {
			if arriving && b.halted {
				b.mu.Unlock()
				return nil, ErrHalted
			}
			return b, nil
		}
		b.mu.Unlock()
	}
	for {
		s.mu.Lock()
		if arriving && s.halted {
			s.mu.Unlock()
			return nil, ErrHalted
		}
		ref, ok := s.barriers[r.Name]
		if !ok {
			if n := len(s.bfree); n > 0 {
				ref, s.bfree = s.bfree[n-1], s.bfree[:n-1]
			} else {
				ref.b = &barrier{}
				ref.b.cond.L = &ref.b.mu
			}
			s.barriers[r.Name] = ref
		}
		s.mu.Unlock()
		ref.b.mu.Lock()
		if ref.b.life == ref.life {
			r.at = ref
			return ref.b, nil
		}
		ref.b.mu.Unlock()
		s.forget(r.Name, ref, false)
	}
}

// unlockBarrier ends a task's stay at b and releases b.mu, first retiring
// the barrier if that leaves it idle: nobody inside — so no arrival of an
// open round and no completed round a participant has yet to collect —
// and no cancel latch (that must outlast the waiter the cancel raced
// ahead of). A run of uniquely named barriers, one per superstep, leaves
// nothing behind; a name that comes back finds a fresh barrier, which is
// what an idle one is; and a name whose tasks re-arrive before the last
// of them has left — a cyclic barrier in steady use — keeps its barrier
// and never touches the table.
func (s *System) unlockBarrier(name string, b *barrier) {
	b.inside--
	retire := b.inside == 0 && !b.canceled
	ref := barrierRef{b, b.life}
	if retire {
		b.life++
		b.arrived, b.gen, b.halted, b.deposits = 0, 0, false, nil
	}
	b.mu.Unlock()
	if retire {
		s.forget(name, ref, true)
	}
}

// forget drops a retired barrier's entry from the table, if it is still
// there; the task that retired it also hands it, at its next life, to the
// free list.
func (s *System) forget(name string, ref barrierRef, recycle bool) {
	s.mu.Lock()
	if s.barriers[name] == ref {
		delete(s.barriers, name)
	}
	if recycle && len(s.bfree) < maxFreeBarriers {
		s.bfree = append(s.bfree, barrierRef{ref.b, ref.life + 1})
	}
	s.mu.Unlock()
}

type barrierResult struct {
	data    map[TID][]byte
	readers int
}

// takeResult hands one waiter its generation's gathered deposits — nil
// for a round without any — freeing the round once every participant has
// collected. Caller holds b.mu.
func (b *barrier) takeResult(gen int) map[TID][]byte {
	r := b.results[gen]
	if r == nil {
		return nil
	}
	r.readers--
	if r.readers <= 0 {
		delete(b.results, gen)
	}
	return r.data
}

// Barrier blocks until count tasks have entered the named barrier
// (PVM's pvm_barrier). All participants must agree on count. A name is a
// cyclic barrier: it can be entered again as soon as it has returned. A
// barrier torn down with CancelBarrier returns ErrCanceled to every
// waiter and every subsequent arrival.
func (t *Task) Barrier(name string, count int) error {
	_, err := t.BarrierExchange(name, count, nil)
	return err
}

// BarrierExchange is Barrier with an all-gather bolted on: a
// participant may deposit a byte slice on arrival and, when the barrier
// completes, receives every deposit of its round keyed by the depositor's
// TID — nil when nobody made one (an empty deposit is none). The
// verification layer uses it to join vector clocks at barriers without
// a second round of messaging. Deposits are copied on entry, so the
// caller may reuse its buffer immediately. CancelBarrier discards the
// pending round's deposits. The task's sends are flushed before it
// arrives, so whatever it sent is receivable once the barrier exits.
// A transport that carries barriers (BarrierCarrier) takes the arrival
// from there; otherwise the barrier is this System's, and the task that
// leaves it idle retires it (unlockBarrier).
func (t *Task) BarrierExchange(name string, count int, deposit []byte) (map[TID][]byte, error) {
	return t.Arrive(&BarrierRef{Name: name}, count, deposit)
}

// Arrive is BarrierExchange at the barrier r names, through the barrier r
// holds while it is still that barrier (BarrierRef): a task that keeps its
// reference across the rounds of a cyclic barrier arrives without a table
// lookup.
func (t *Task) Arrive(r *BarrierRef, count int, deposit []byte) (map[TID][]byte, error) {
	name := r.Name
	if count <= 0 {
		return nil, fmt.Errorf("pvm: barrier %q with count %d", name, count)
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	if bc := t.sys.carrier; bc != nil {
		return bc.BarrierExchange(t.tid, name, count, deposit)
	}
	b, err := t.sys.lockBarrier(r, true)
	if err != nil {
		return nil, err
	}
	b.inside++
	res, err := b.round(t.tid, name, count, deposit)
	t.sys.unlockBarrier(name, b)
	return res, err
}

// round is one task's stay at b, b.mu held throughout but while it waits:
// its arrival, with its deposit, and its wait until the round completes
// or the barrier is canceled or halted.
func (b *barrier) round(tid TID, name string, count int, deposit []byte) (map[TID][]byte, error) {
	if b.canceled {
		return nil, fmt.Errorf("pvm: barrier %q: %w", name, ErrCanceled)
	}
	gen := b.gen
	if len(deposit) > 0 {
		if b.deposits == nil {
			b.deposits = make(map[TID][]byte)
		}
		b.deposits[tid] = append([]byte(nil), deposit...)
	}
	b.arrived++
	if b.arrived >= count {
		b.arrived = 0
		if b.deposits != nil {
			if b.results == nil {
				b.results = make(map[int]*barrierResult)
			}
			b.results[gen] = &barrierResult{data: b.deposits, readers: count}
			b.deposits = nil
		}
		b.gen++
		b.cond.Broadcast()
		return b.takeResult(gen), nil
	}
	for b.gen == gen && !b.halted && !b.canceled {
		b.cond.Wait()
	}
	if b.gen != gen {
		return b.takeResult(gen), nil
	}
	if b.canceled {
		return nil, fmt.Errorf("pvm: barrier %q: %w", name, ErrCanceled)
	}
	return nil, ErrHalted
}

// CancelBarrier tears down the named barrier: every current waiter and
// every later arrival gets ErrCanceled. Unlike Halt it affects only
// this barrier, so the rest of the system keeps running — the hook the
// failure-detection layer uses to un-park survivors of a crashed peer.
// Canceling a name nobody has arrived at yet still latches: the cancel
// may race ahead of the waiter it is meant to wake. A canceled barrier
// is never retired.
func (s *System) CancelBarrier(name string) {
	b, _ := s.lockBarrier(&BarrierRef{Name: name}, false)
	b.canceled = true
	b.arrived = 0
	b.deposits = nil
	b.cond.Broadcast()
	b.mu.Unlock()
}
