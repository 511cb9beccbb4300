package wiretrans

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hbspk/internal/pvm"
)

func init() {
	pvm.RegisterTransport(pvm.TransportFactory{Name: "unix", New: func() (pvm.Transport, error) {
		return NewLoopback("unix")
	}})
	pvm.RegisterTransport(pvm.TransportFactory{Name: "tcp", New: func() (pvm.Transport, error) {
		return NewLoopback("tcp")
	}})
}

// Ack codes.
const (
	ackOK int32 = iota
	ackHalted
	ackNoTask
	ackBad
)

// Loopback is a pvm.Transport that pushes every delivery through a
// real socket: the System's sends are framed, written to a connection,
// read back by a server pump attached to the same System, injected
// into the destination mailbox, and acknowledged. Functionally the
// messages land where the in-proc path would put them — but they cross
// a genuine network stack with real framing, partial reads, and
// connection failure modes, which is exactly what the conformance and
// chaos suites need to exercise.
//
// Deliver posts: it writes the framed batch through and returns — or,
// for a batch its sender marked More, holds it for the write that ends
// the sender's call, so a post to many destinations is one writev. Flush
// is the one wait, until the server pump has injected and acked all the
// sender posted — the engines' "all sends of a superstep happen before
// barrier exit" at one wake-up per superstep. Nothing else queues in
// user space: a slow pump pushes back through the socket buffer.
type Loopback struct {
	network string // "unix" or "tcp"
	sys     *pvm.System

	ln  net.Listener
	dir string // unix socket directory, removed on Close
	cli *link  // client side: Deliver writes, ack reader reads

	// mu guards the post/ack accounting. It nests inside cli.wmu and is
	// never held across a socket operation.
	seq     int64 // last batch number; guarded by cli.wmu, not mu
	mu      sync.Mutex
	pending []post // un-acked batches in wire order, from head on
	head    int
	senders map[pvm.TID]*sender
	failErr error // set once the link is gone: what deliveries fail with

	// AckTimeout bounds one Flush. The default is generous: on loopback
	// an ack is microseconds away, so expiry means the pump died, not
	// congestion, and fails the link.
	AckTimeout time.Duration
	wg         sync.WaitGroup

	sevMu      sync.Mutex
	severAfter int64 // server frames until abrupt close; <0 = never
}

// post is one batch on the wire awaiting its ack.
type post struct {
	seq      int64
	src, dst pvm.TID
}

// sender is one task's view of the link. held is touched only by the
// task's own calls (Deliver, Flush), the rest under Loopback.mu.
type sender struct {
	held        held        // batches posted with More, not yet written
	outstanding int         // posts not yet acked
	err         error       // first failure among its posts since its last Flush
	idle        *sync.Cond  // on Loopback.mu; signalled when outstanding hits zero
	timer       *time.Timer // the AckTimeout of the Flush in progress, reused
}

// NewLoopback returns an unattached loopback transport over the given
// network ("unix" or "tcp"). The listener and connection are created
// by Attach.
func NewLoopback(network string) (*Loopback, error) {
	switch network {
	case "unix", "tcp":
	default:
		return nil, fmt.Errorf("wiretrans: unsupported network %q", network)
	}
	return &Loopback{
		network:    network,
		senders:    make(map[pvm.TID]*sender),
		AckTimeout: 30 * time.Second,
		severAfter: -1,
	}, nil
}

// Name implements pvm.Transport.
func (l *Loopback) Name() string { return l.network }

// Attach implements pvm.Transport: it brings up the listener, dials it,
// handshakes, and starts the server pump and the ack reader.
func (l *Loopback) Attach(sys *pvm.System) error {
	l.sys = sys
	addr := "127.0.0.1:0"
	if l.network == "unix" {
		dir, err := os.MkdirTemp("", "hbspk-wt-*")
		if err != nil {
			return fmt.Errorf("wiretrans: socket dir: %w", err)
		}
		l.dir = dir
		addr = filepath.Join(dir, "loop.sock")
	}
	ln, err := net.Listen(l.network, addr)
	if err != nil {
		l.removeDir()
		return fmt.Errorf("wiretrans: listen %s: %w", l.network, err)
	}
	l.ln = ln

	accepted := make(chan net.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- conn
	}()

	conn, err := net.DialTimeout(l.network, ln.Addr().String(), handshakeTimeout)
	if err != nil {
		_ = ln.Close()
		l.removeDir()
		return fmt.Errorf("wiretrans: dial %s: %w", l.network, err)
	}
	l.cli = newLink(conn, l.network)
	if err := l.cli.sendHello(helloInfo{role: roleTransport, pid: -1}); err != nil {
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return err
	}

	var srvConn net.Conn
	select {
	case srvConn = <-accepted:
	case err := <-acceptErr:
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return fmt.Errorf("wiretrans: accept: %w", err)
	case <-time.After(handshakeTimeout):
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return fmt.Errorf("wiretrans: accept: %w", pvm.ErrTimeout)
	}
	srv := newLink(srvConn, l.network)
	h, err := srv.readHello()
	if err != nil {
		_ = srv.close()
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return err
	}
	if h.role != roleTransport {
		_ = srv.sendWelcome(welcomeRejected, "not a transport client")
		_ = srv.close()
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return fmt.Errorf("%w: unexpected role %d", ErrBadFrame, h.role)
	}
	if err := srv.sendWelcome(welcomeOK, ""); err != nil {
		_ = srv.close()
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return err
	}
	if err := l.cli.readWelcome(); err != nil {
		_ = srv.close()
		_ = conn.Close()
		_ = ln.Close()
		l.removeDir()
		return err
	}

	l.wg.Add(2)
	go l.serverPump(srv)
	go l.ackReader()
	return nil
}

// Deliver implements pvm.Transport. A batch marked More joins what its
// sender holds; an unmarked one takes everything held, itself last, out
// in one vectored write that copies no payload byte (writeHeldLocked) —
// still one BATCH frame, one seq and one ACK per destination. Flush
// collects the acks. On a failed link what the sender held goes with the
// batch.
func (l *Loopback) Deliver(dst pvm.TID, ms []pvm.Message) error {
	if len(ms) == 0 {
		return nil
	}
	src := ms[0].Src
	l.mu.Lock()
	s := l.senders[src]
	if s == nil {
		s = &sender{idle: sync.NewCond(&l.mu)}
		l.senders[src] = s
	}
	l.mu.Unlock()
	s.held.add(dst, ms)
	if ms[0].More {
		return nil
	}
	return l.writeHeld(src, s)
}

// writeHeld numbers src's held frames, queues them as posts and writes
// them, all under the write lock, so the pending queue is in wire order.
// The wires are released, and with them every borrowed tail, once that
// write has returned. It fails only on a link already lost, naming the
// first destination that cost.
func (l *Loopback) writeHeld(src pvm.TID, s *sender) error {
	c := l.cli
	c.wmu.Lock()
	defer c.wmu.Unlock()
	l.mu.Lock()
	if err := l.failErr; err != nil {
		l.mu.Unlock()
		err = &pvm.DeliveryError{Dst: s.held.frames[0].dst, Err: err}
		s.held.release()
		return err
	}
	for i := range s.held.frames {
		f := &s.held.frames[i]
		l.seq++
		f.seq = l.seq
		l.pending = append(l.pending, post{seq: f.seq, src: src, dst: f.dst})
	}
	s.outstanding += len(s.held.frames)
	l.mu.Unlock()

	if err := c.writeHeldLocked(&s.held); err != nil {
		// A link that cannot be written is lost; the posts fail with the
		// rest of the queue and surface at the sender's Flush.
		l.fail(err)
	}
	return nil
}

// releaseAll drops the transport's reference to each wire of a batch.
func releaseAll(ms []pvm.Message) {
	for _, m := range ms {
		m.Release()
	}
}

// Flush implements pvm.Transport: it writes what src left held, then
// parks until every batch src posted is acked or failed — which
// AckTimeout sees to, by failing the link — and returns the first failure
// among them.
func (l *Loopback) Flush(src pvm.TID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.senders[src]
	if s == nil {
		return nil
	}
	var heldErr error
	if len(s.held.frames) > 0 {
		l.mu.Unlock() // mu nests inside the write lock writeHeld takes
		heldErr = l.writeHeld(src, s)
		l.mu.Lock()
	}
	if s.outstanding > 0 {
		if s.timer == nil {
			s.timer = time.AfterFunc(l.AckTimeout, l.ackExpired)
		} else {
			s.timer.Reset(l.AckTimeout)
		}
		for s.outstanding > 0 {
			s.idle.Wait()
		}
		s.timer.Stop()
	}
	err := s.err
	s.err = nil
	if err == nil {
		err = heldErr
	}
	return err
}

// ackExpired fails the link when a Flush has waited AckTimeout.
func (l *Loopback) ackExpired() {
	l.fail(fmt.Errorf("wiretrans: %s ack after %v: %w", l.network, l.AckTimeout, pvm.ErrTimeout))
}

// acked settles the batch at the head of the pending queue. Acks come
// back in wire order, so any other seq is a protocol violation.
func (l *Loopback) acked(seq int64, code int32, detail string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.pending) || l.pending[l.head].seq != seq {
		return fmt.Errorf("%w: ack for batch %d is not the oldest pending", ErrBadFrame, seq)
	}
	p := l.pending[l.head]
	if l.head++; l.head == len(l.pending) {
		l.pending, l.head = l.pending[:0], 0
	}
	s := l.senders[p.src]
	if code != ackOK && s.err == nil {
		s.err = &pvm.DeliveryError{Dst: p.dst, Err: ackCause(code, detail)}
	}
	if s.outstanding--; s.outstanding == 0 {
		s.idle.Broadcast()
	}
	return nil
}

// ackCause types a failed batch verdict.
func ackCause(code int32, detail string) error {
	switch code {
	case ackHalted:
		return pvm.ErrHalted
	case ackNoTask:
		return fmt.Errorf("wiretrans: %s", detail)
	default:
		return fmt.Errorf("%w: %s", ErrBadFrame, detail)
	}
}

// serverPump reads BATCH frames, injects their messages into the
// destination mailbox, and acks them: one ack frame per batch, buffered
// and written with one Write once no complete next frame is buffered —
// it never parks in a read owing acks, and a burst costs one syscall.
// It also implements Sever: when the armed frame budget runs out, both
// connections are torn down abruptly, mid-protocol, with no goodbye —
// the failure mode the abrupt-close chaos test exercises.
func (l *Loopback) serverPump(srv *link) {
	defer l.wg.Done()
	defer func() { _ = srv.close() }()
	var acks []byte
	for {
		if len(acks) > 0 && !frameBuffered(srv.br) {
			srv.wmu.Lock()
			err := srv.writeLocked(acks)
			srv.wmu.Unlock()
			if err != nil {
				l.fail(err)
				return
			}
			acks = acks[:0]
		}
		kind, body, f, err := srv.readFrame()
		if err != nil {
			l.fail(fmt.Errorf("wiretrans: %s server: %w: %v", l.network, pvm.ErrPeerLost, err))
			return
		}
		if kind != frameBatch {
			l.fail(fmt.Errorf("%w: server got kind %d", ErrBadFrame, kind))
			return
		}
		if l.countSever() {
			// Abrupt close: no ack for the frame just read, no goodbye.
			l.fail(fmt.Errorf("wiretrans: %s link severed: %w", l.network, pvm.ErrPeerLost))
			return
		}
		// The injected messages hold the frame now; the pump lets go of it
		// (on the paths above, the collector does).
		seq, code, detail := injectBatch(l.sys, f, body)
		f.Release()
		start := len(acks)
		acks = pvm.Wrap(beginFrame(acks, frameAck)).PackInt64(seq).PackInt32(code).PackString(detail).Bytes()
		endFrame(acks, start, 0)
	}
}

// injectBatch decodes one BATCH body, a slice of frame f, and stages
// every message in sys: each is a slice of body, and takes its own
// reference on f.
func injectBatch(sys *pvm.System, f pvm.Frame, body []byte) (seq int64, code int32, detail string) {
	b := pvm.Wrap(body)
	seq, err := b.UnpackInt64()
	if err != nil {
		return 0, ackBad, err.Error()
	}
	dst, err := b.UnpackInt32()
	if err != nil {
		return seq, ackBad, err.Error()
	}
	n, err := b.UnpackInt32()
	if err != nil {
		return seq, ackBad, err.Error()
	}
	for i := int32(0); i < n; i++ {
		src, err := b.UnpackInt32()
		if err != nil {
			return seq, ackBad, err.Error()
		}
		tag, err := b.UnpackInt64()
		if err != nil {
			return seq, ackBad, err.Error()
		}
		wire, err := b.UnpackBytes()
		if err != nil {
			return seq, ackBad, err.Error()
		}
		if err := sys.Inject(pvm.TID(src), pvm.TID(dst), int(tag), f, wire); err != nil {
			if errors.Is(err, pvm.ErrHalted) {
				return seq, ackHalted, ""
			}
			return seq, ackNoTask, err.Error()
		}
	}
	return seq, ackOK, ""
}

// ackReader settles posted batches as their acks come back.
func (l *Loopback) ackReader() {
	defer l.wg.Done()
	var scratch []byte
	for {
		kind, body, next, n, err := ReadFrame(l.cli.br, scratch)
		if err != nil {
			l.fail(fmt.Errorf("wiretrans: %s ack reader: %w: %v", l.network, pvm.ErrPeerLost, err))
			return
		}
		observeFrame(l.network, false, n)
		scratch = next
		if kind != frameAck {
			l.fail(fmt.Errorf("%w: ack reader got kind %d", ErrBadFrame, kind))
			return
		}
		b := pvm.Wrap(body)
		seq, err := b.UnpackInt64()
		if err != nil {
			l.fail(fmt.Errorf("%w: %v", ErrBadFrame, err))
			return
		}
		code, err := b.UnpackInt32()
		if err != nil {
			l.fail(fmt.Errorf("%w: %v", ErrBadFrame, err))
			return
		}
		detail, _ := b.UnpackString()
		if err := l.acked(seq, code, detail); err != nil {
			l.fail(err)
			return
		}
	}
}

// Sever arms an abrupt connection teardown after n more delivered
// frames (0 = at the next frame). Batches still un-acked then fail at
// their sender's Flush, and later Delivers at once, with
// pvm.ErrPeerLost, which the engines detect as a peer failure.
func (l *Loopback) Sever(n int64) {
	l.sevMu.Lock()
	l.severAfter = n
	l.sevMu.Unlock()
}

// countSever burns one frame of the armed sever budget and reports
// whether the link must drop now.
func (l *Loopback) countSever() bool {
	l.sevMu.Lock()
	defer l.sevMu.Unlock()
	if l.severAfter < 0 {
		return false
	}
	if l.severAfter == 0 {
		return true
	}
	l.severAfter--
	return false
}

// fail latches the first terminal error (nil: a graceful Close), fails
// every pending batch with it (each sender learns of its oldest one),
// wakes every Flush and tears down the connections.
func (l *Loopback) fail(err error) {
	l.mu.Lock()
	if l.failErr != nil {
		l.mu.Unlock()
		return
	}
	if l.failErr = err; err == nil {
		l.failErr = fmt.Errorf("wiretrans: %s transport closed: %w", l.network, pvm.ErrPeerLost)
	}
	for _, p := range l.pending[l.head:] {
		if s := l.senders[p.src]; s.err == nil {
			s.err = &pvm.DeliveryError{Dst: p.dst, Err: l.failErr}
		}
	}
	l.pending, l.head = nil, 0
	for _, s := range l.senders {
		s.outstanding = 0
		s.idle.Broadcast()
	}
	l.mu.Unlock()
	if l.cli != nil {
		_ = l.cli.close()
	}
	if l.ln != nil {
		_ = l.ln.Close()
	}
}

// Close implements pvm.Transport: a graceful teardown (nil failure).
func (l *Loopback) Close() error {
	l.fail(nil)
	l.wg.Wait()
	l.removeDir()
	return nil
}

func (l *Loopback) removeDir() {
	if l.dir != "" {
		_ = os.RemoveAll(l.dir)
		l.dir = ""
	}
}
