package pvm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrPeerLost is wrapped by transports when a peer's link is severed —
// the connection closed, reset, or failed mid-delivery. The engines map
// it into their failure-detection taxonomy (ErrPeerFailed) exactly like
// a detected crash, so a dead wire degrades a run instead of hanging it.
var ErrPeerLost = errors.New("pvm: transport peer lost")

// DeliveryError is how a transport reports a batch it could not make
// observable: Dst is the destination of the first such batch, Err the
// typed cause (ErrPeerLost, ErrTimeout, ErrHalted, ...).
type DeliveryError struct {
	Dst TID
	Err error
}

func (e *DeliveryError) Error() string { return fmt.Sprintf("deliver to %d: %v", e.Dst, e.Err) }
func (e *DeliveryError) Unwrap() error { return e.Err }

// Transport abstracts the message plane under a System. The nil
// transport is the in-proc fast path: deliveries go straight into the
// destination's indexed mailbox with zero copies and pooled backing.
// A non-nil transport owns delivery instead: Send and SendBatches hand
// it the adopted messages and the transport is responsible for
// getting them into the destination mailbox (for a wire transport, via
// System.Inject on the receiving side, from a Frame it read or copied
// the bytes into: every message injected from a frame holds a reference
// on it, and the frame recycles once its last message is released).
//
// Contract (post, then flush — as pvm_send returns when the buffer is
// reusable, not when the peer has the message):
//
//   - Deliver posts: it may return before the batch is observable by the
//     destination's receive operations. One batch has one Src.
//   - A batch whose messages carry More may also be held unwritten: the
//     mark is the sender's promise of another Deliver inside the same
//     call, and nothing else — no size, timer or setting — permits a
//     hold. A held batch is written, ahead of and together with what
//     follows it, by the sender's first unmarked Deliver; an unmarked
//     batch (every Send and lone SendBatch) is written before
//     Deliver returns. The write may be another sender's — a transport
//     may carry the posts of senders that deliver at the same time in
//     one write, made by one of their Deliver calls — but each returns
//     only once its batch is written. A sender that breaks the promise
//     has what it left held written by its next Flush — barrier entry
//     and task exit included. A Deliver that returns an error has ended
//     the post: the transport holds nothing of that sender's afterwards.
//     A transport with no link to write to (the hub, the in-proc path)
//     ignores the mark.
//   - Flush(src) first writes whatever src left held, then returns once
//     every batch src has posted is observable, or with the first
//     failure among them as a *DeliveryError. The engines rely on "all
//     sends of a superstep happen before any barrier exit";
//     Task.BarrierExchange and task exit flush, so that holds by
//     construction and no posted failure is dropped.
//   - Deliver consumes the batch: each message's wire reference is owned
//     by the transport from the moment Deliver is called, on success and
//     on error alike (release once the bytes are on the wire). The ms
//     slice itself is the caller's again when Deliver returns: a
//     transport that holds a batch keeps the messages by value.
//   - A message's bytes are read through Message.Pieces, head then tail.
//     The tail is a slice its sender lent: borrowed bytes are valid until
//     the call that posted them returns — Deliver for an unmarked batch,
//     for a marked one the unmarked Deliver that ends its post, whoever's
//     call made the write; a transport that keeps a message past that
//     copies them first.
//   - Per-sender FIFO: two Deliver calls from the same task to the same
//     destination must stage in call order, held or not.
//   - Errors map into the pvm taxonomy: a severed link wraps
//     ErrPeerLost, a flush deadline wraps ErrTimeout, and a halted
//     destination system surfaces ErrHalted.
type Transport interface {
	// Name identifies the transport flavor ("inproc", "unix", "tcp").
	Name() string
	// Attach binds the transport to the System whose tasks it will
	// carry. Called once by SetTransport before any task is spawned.
	Attach(sys *System) error
	// Deliver posts a batch of already-adopted messages to dst.
	Deliver(dst TID, ms []Message) error
	// Flush writes what src left held and waits until everything src
	// posted is observable.
	Flush(src TID) error
	// Close tears the transport down (listeners, connections, pumps).
	Close() error
}

// BarrierCarrier is the extension a transport implements when the tasks
// it carries meet their barriers in another OS process (a worker's link
// to its coordinator, DESIGN.md §5.10): Task.BarrierExchange, having
// flushed, hands the arrival to it instead of the System's own table,
// and returns what it returns — the same deposits keyed by TID, the same
// typed errors. Everything the task posted before arriving must be
// observable by every participant that leaves the barrier.
type BarrierCarrier interface {
	BarrierExchange(tid TID, name string, count int, d time.Duration, deposit []byte) (map[TID][]byte, error)
}

// TransportFactory names one registered transport flavor. A nil New is
// the in-proc direct path (no Transport object at all), which is how
// the default registers itself.
type TransportFactory struct {
	Name string
	New  func() (Transport, error)
}

var (
	transportsMu sync.Mutex
	transports   = []TransportFactory{{Name: "inproc", New: nil}}
)

// RegisterTransport adds a transport flavor to the process-global
// registry. The conformance suite iterates the registry so every
// registered transport is exercised by the same collective matrix.
func RegisterTransport(f TransportFactory) {
	transportsMu.Lock()
	defer transportsMu.Unlock()
	for _, have := range transports {
		if have.Name == f.Name {
			panic("pvm: duplicate transport " + f.Name)
		}
	}
	transports = append(transports, f)
}

// TransportFactories returns a copy of the registry, in-proc first.
func TransportFactories() []TransportFactory {
	transportsMu.Lock()
	defer transportsMu.Unlock()
	return append([]TransportFactory(nil), transports...)
}

// SetTransport attaches tr and routes subsequent Send/SendBatches calls
// through it. Must be called before any Spawn: the field is read
// without synchronization on the send path, relying on Spawn's
// happens-before edge. A nil tr is a no-op (the in-proc default).
func (s *System) SetTransport(tr Transport) error {
	if tr == nil {
		return nil
	}
	if err := tr.Attach(s); err != nil {
		return err
	}
	s.transport = tr
	s.carrier, _ = tr.(BarrierCarrier)
	return nil
}

// Inject stages a received message into dst's mailbox on behalf of src,
// delivered exactly like a local send. It is the re-entry point for wire
// transports: wire is a slice of frame f, which the caller read or copied
// the message into, and the message takes a reference of its own on f
// without copying anything. The caller's reference stays the caller's to
// release once it has injected what it will; the frame returns to the
// arena when its last message is released, so nobody writes the bytes
// meanwhile.
func (s *System) Inject(src, dst TID, tag int, f Frame, wire []byte) error {
	target, err := s.task(dst)
	if err != nil {
		return err
	}
	f.w.refs.Add(1)
	if err := target.deliverOne(Message{Src: src, Tag: tag, buf: wire, w: f.w}); err != nil {
		f.w.release()
		return err
	}
	return nil
}
