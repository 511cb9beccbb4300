package wiretrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
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
// the sender's call, so a post to many destinations is one writev — and
// senders that post at the same time share that write (postHeld), so a
// superstep is one writev. Flush is the one wait, until all the sender
// posted is injected and acked — "all sends of a superstep happen before
// barrier exit" at one wake-up per superstep, none when the write's
// leader read its burst back (writeQueue). Nothing else queues in user
// space: a slow pump pushes back through the socket buffer. The pump and
// the ack reader read only what they are owed (demand), so no read is
// made to find the socket empty; a burst's reader knows each frame's
// length, so it reads the burst with one read and acks it with one write.
type Loopback struct {
	network string // "unix" or "tcp"
	sys     *pvm.System

	ln  net.Listener
	dir string // unix socket directory, removed on Close
	cli *link  // client side: Deliver writes, ack reader reads
	srv *link  // server side: the pump reads, or a burst's writer reads back

	// mu guards the post/ack accounting. It nests inside cli.wmu and is
	// never held across a socket operation.
	seq     int64     // last batch number; guarded by cli.wmu, not mu
	group   []*sender // the queue the group write took; guarded by cli.wmu
	helds   []*held   // what the group write writes; guarded by cli.wmu
	mu      sync.Mutex
	queue   []*sender // posts waiting for the next group write; the first leads
	pending []post    // un-acked batches in wire order, from head on
	head    int
	senders map[pvm.TID]*sender
	failErr error  // set once the link is gone: what deliveries fail with
	batches demand // BATCH frames posted and not yet read by the pump, by length
	acks    demand // ACK frames the pump wrote and the ack reader has not read

	readBacks int // bursts read back by their writer (writeQueue); guarded by mu
	// Scratch of a stream's one reader at a time: a burst's acks, and the
	// ack being read.
	ackOut, ackIn []byte

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
// task's own calls (Deliver, Flush) and, while the task waits for it in
// the queue, by the group write; the rest under Loopback.mu.
type sender struct {
	src         pvm.TID
	held        held        // batches posted with More, not yet written
	queued      bool        // held waits in the queue for the group write
	outstanding int         // posts not yet acked
	err         error       // first failure among its posts since its last Flush
	idle        *sync.Cond  // on Loopback.mu; signalled when outstanding hits zero or held is written
	timer       *time.Timer // the AckTimeout of the Flush in progress, reused
}

// demand is what one reader of the Loopback's sockets is owed: frames
// counted before they are written — a write may wait for its reader —
// and not yet read. The reader reads only while it is owed frames and
// otherwise waits on cond, which fail also wakes. The ack reader is owed
// a count; the pump is owed each frame's wire length, in wire order
// (lens, and owed is their number), so that it can read them in bulk.
// busy: it holds frames an await handed it; taken counts those awaits.
type demand struct {
	owed  int
	lens  []int
	busy  bool
	taken int
	cond  *sync.Cond // on Loopback.mu
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
	l := &Loopback{
		network:    network,
		senders:    make(map[pvm.TID]*sender),
		AckTimeout: 30 * time.Second,
		severAfter: -1,
	}
	l.batches.cond = sync.NewCond(&l.mu)
	l.acks.cond = sync.NewCond(&l.mu)
	return l, nil
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
	l.srv = srv
	l.cli.offerable()
	srv.offerable()
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
// sender holds; an unmarked one posts everything held, itself last
// (postHeld), in one vectored write that copies no payload byte
// (writeHeldLocked) and that the posts of other senders may share —
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
		s = &sender{src: src, idle: sync.NewCond(&l.mu)}
		l.senders[src] = s
	}
	l.mu.Unlock()
	s.held.add(dst, ms)
	if ms[0].More {
		return nil
	}
	return l.postHeld(s)
}

// postHeld queues what s holds for the next group write and returns once
// the write that carried it has returned, whoever made it: the wires, and
// with them every borrowed tail, are released before the sender's call
// returns. The first sender to queue leads. It yields once, so that peers
// already runnable in the same superstep queue behind it, then writes the
// queue (writeQueue); the others wait for that write. It fails only on a
// link already lost, naming s's first destination.
func (l *Loopback) postHeld(s *sender) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue = append(l.queue, s)
	s.queued = true
	if len(l.queue) == 1 {
		l.mu.Unlock() // mu nests inside the write lock writeQueue takes
		runtime.Gosched()
		l.writeQueue()
		l.mu.Lock()
	}
	for s.queued {
		s.idle.Wait()
	}
	// The write that carried held released it; held still full means the
	// link was lost before any write took it.
	if len(s.held.frames) == 0 {
		return nil
	}
	err := &pvm.DeliveryError{Dst: s.held.frames[0].dst, Err: l.failErr}
	s.held.release()
	return err
}

// writeQueue takes the queue under the write lock, numbers every post in
// it and queues each as pending — so the pending queue is in wire order —
// writes them all with one vectored write, and lets the queued senders
// go. While neither the pump nor the ack reader has frames owed or in
// hand — and none can be owed them before the write lock is let go — the
// write is an offer: a burst the socket takes whole is read back, acked
// and settled here, one it takes in part is owed to the pump. On a link
// already lost it writes nothing and leaves each post to fail at its
// sender (postHeld); a write or read-back that fails loses the link, and
// its posts fail with the rest of the pending queue at their senders' Flush.
func (l *Loopback) writeQueue() {
	c := l.cli
	c.wmu.Lock()
	defer c.wmu.Unlock()
	l.mu.Lock()
	l.group, l.queue = l.queue, l.group[:0]
	l.helds = l.helds[:0]
	offer := false
	if l.failErr == nil {
		for _, s := range l.group {
			for i := range s.held.frames {
				f := &s.held.frames[i]
				l.seq++
				f.seq = l.seq
				l.pending = append(l.pending, post{seq: f.seq, src: s.src, dst: f.dst})
				l.batches.lens = append(l.batches.lens, frameHeader+f.size)
			}
			s.outstanding += len(s.held.frames)
			l.helds = append(l.helds, &s.held)
		}
		if offer = l.batches.owed+l.acks.owed == 0 && !l.batches.busy && !l.acks.busy; !offer {
			l.batches.owed = len(l.batches.lens)
			l.batches.cond.Signal()
		}
	}
	lens := l.batches.lens
	l.mu.Unlock()

	var err error
	readBack := false
	if c.stageHeldLocked(l.helds) {
		if readBack = offer && c.offerLocked(); !readBack {
			if offer {
				l.owe(&l.batches, len(lens))
			}
			err = c.writevLocked()
		}
	}
	c.doneHeldLocked(l.helds, err)
	if readBack {
		err = l.answer(l.srv, lens, true)
	}
	if err != nil {
		l.fail(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if readBack {
		l.batches.lens = l.batches.lens[:0]
		l.readBacks++
	}
	for _, s := range l.group {
		s.queued = false
		s.idle.Signal()
	}
}

// releaseAll drops the transport's reference to each wire of a batch.
func releaseAll(ms []pvm.Message) {
	for _, m := range ms {
		m.Release()
	}
}

// Flush implements pvm.Transport: it posts what src left held, then
// parks until every batch src posted is acked or failed — which
// AckTimeout sees to, by failing the link — and returns the first failure
// among them.
func (l *Loopback) Flush(src pvm.TID) error {
	l.mu.Lock()
	s := l.senders[src]
	l.mu.Unlock()
	if s == nil {
		return nil
	}
	var heldErr error
	if len(s.held.frames) > 0 {
		heldErr = l.postHeld(s)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
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
	// A queued sender waits for its write, which may be settling it.
	if s.outstanding--; s.outstanding == 0 && !s.queued {
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

// owe counts n more frames for d's reader, ahead of their write, and
// wakes it.
func (l *Loopback) owe(d *demand, n int) {
	l.mu.Lock()
	d.owed += n
	d.cond.Signal()
	l.mu.Unlock()
}

// await parks d's reader until it is owed frames and hands it all of
// them — their number, and their lengths where d keeps them, in exchange
// for the spent array the reader hands back; 0 once the link has failed.
func (l *Loopback) await(d *demand, spent []int) (int, []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d.busy = false
	for d.owed == 0 && l.failErr == nil {
		d.cond.Wait()
	}
	if l.failErr != nil {
		return 0, spent
	}
	n, lens := d.owed, d.lens
	d.owed, d.lens, d.busy = 0, spent[:0], true
	d.taken++
	return n, lens
}

// maxSlab bounds the slab a burst of frames is read into: frames go on
// sharing one read while their lengths fit in it, and a frame longer
// than the bound is read alone, into a frame of its own. A kept payload
// pins its slab for two Syncs (DESIGN.md §5.4); with no bound, a bulk
// step drew a fresh slab past the arena's largest class each time.
const maxSlab = 256 << 10

// serverPump answers the bursts of BATCH frames it is owed, taking all
// that is owed at once, and waits off the socket for the next (await).
// It cannot deadlock on an ack write: every owed byte is already being
// written by a writeQueue that never waits for an ack.
func (l *Loopback) serverPump(srv *link) {
	defer l.wg.Done()
	defer func() { _ = srv.close() }()
	var lens []int // the burst: each owed frame's wire length, in wire order
	for {
		var n int
		if n, lens = l.await(&l.batches, lens); n == 0 {
			return
		}
		if err := l.answer(srv, lens[:n], false); err != nil {
			l.fail(err)
			return
		}
	}
}

// answer reads the burst whose frames' wire lengths are lens off srv by
// slabs (readSlab) and acks it, one ACK frame a batch, in one write. An
// offered write (offerLocked) the socket takes whole is read back and
// settled here as the ack reader would (readAck); acks it did not take,
// or all of them unoffered, are owed to the ack reader before they are
// written.
func (l *Loopback) answer(srv *link, lens []int, offer bool) (err error) {
	acks := l.ackOut[:0]
	for at := 0; at < len(lens); {
		to, size := at+1, lens[at]
		for to < len(lens) && size+lens[to] <= maxSlab {
			size += lens[to]
			to++
		}
		if acks, err = l.readSlab(srv, lens[at:to], size, acks); err != nil {
			return err
		}
		at = to
	}
	l.ackOut = acks
	srv.wmu.Lock()
	srv.iov = append(srv.iov[:0], acks)
	srv.bufs = srv.iov
	whole := offer && srv.offerLocked()
	if !whole {
		l.owe(&l.acks, len(lens))
		err = srv.writevLocked()
	}
	srv.wmu.Unlock()
	if err != nil {
		return err
	}
	for at := 0; at < len(acks); {
		n := frameHeader + int(binary.BigEndian.Uint32(acks[at:]))
		observeFrame(srv.transport, true, n)
		at += n
	}
	for i := 0; whole && err == nil && i < len(lens); i++ {
		err = l.readAck()
	}
	return err
}

// readSlab reads the consecutive frames whose wire lengths are lens, size
// bytes in all, with one io.ReadFull into one pvm.Frame drawn from the
// wire arena; checks each header against its owed length — a mismatch is
// ErrBadFrame — then injects each batch, every message taking its own
// reference on the slab, and appends its ack to acks. It also implements
// Sever: when the armed frame budget runs out, both connections are torn
// down abruptly, mid-protocol, with no goodbye — the failure mode the
// abrupt-close chaos test exercises.
func (l *Loopback) readSlab(srv *link, lens []int, size int, acks []byte) ([]byte, error) {
	if size-frameHeader > MaxFrame {
		return acks, fmt.Errorf("wiretrans: %s server: %w: %w: %d bytes (limit %d)", l.network, pvm.ErrPeerLost, ErrFrameTooBig, size-frameHeader, MaxFrame)
	}
	f := pvm.NewFrame(size)
	defer f.Release() // the injected messages hold the slab now
	buf := f.Bytes()
	if _, err := io.ReadFull(srv.br, buf); err != nil {
		return acks, fmt.Errorf("wiretrans: %s server: %w: %v", l.network, pvm.ErrPeerLost, err)
	}
	for _, n := range lens {
		frame := buf[:n]
		buf = buf[n:]
		if n <= frameHeader || frameHeader+int(binary.BigEndian.Uint32(frame)) != n || frame[frameHeader] != frameBatch {
			return acks, fmt.Errorf("%w: server owed a %d-byte BATCH frame, read %x", ErrBadFrame, n, frame[:min(n, frameHeader+1)])
		}
		observeFrame(srv.transport, false, n)
		if l.countSever() {
			// Abrupt close: no ack for the frame just read, no goodbye.
			return acks, fmt.Errorf("wiretrans: %s link severed: %w", l.network, pvm.ErrPeerLost)
		}
		seq, code, detail := injectBatch(l.sys, f, frame[frameHeader+1:])
		start := len(acks)
		acks = pvm.Wrap(beginFrame(acks, frameAck)).PackInt64(seq).PackInt32(code).PackString(detail).Bytes()
		endFrame(acks, start, 0)
	}
	return acks, nil
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

// ackReader settles posted batches as their acks come back. It reads
// only the acks it is owed and otherwise waits off the socket (await).
func (l *Loopback) ackReader() {
	defer l.wg.Done()
	due := 0
	for {
		if due == 0 {
			if due, _ = l.await(&l.acks, nil); due == 0 {
				return
			}
		}
		due--
		if err := l.readAck(); err != nil {
			l.fail(err)
			return
		}
	}
}

// readAck reads the next ACK frame off the client side and settles its
// batch (acked). A frame of another kind, or a body that does not decode
// to a seq, a verdict and its detail, is ErrBadFrame.
func (l *Loopback) readAck() error {
	kind, body, next, n, err := ReadFrame(l.cli.br, l.ackIn)
	if err != nil {
		return fmt.Errorf("wiretrans: %s ack reader: %w: %v", l.network, pvm.ErrPeerLost, err)
	}
	observeFrame(l.network, false, n)
	l.ackIn = next
	if kind != frameAck {
		return fmt.Errorf("%w: ack reader got kind %d", ErrBadFrame, kind)
	}
	b := pvm.Wrap(body)
	seq, err1 := b.UnpackInt64()
	code, err2 := b.UnpackInt32()
	detail, err3 := b.UnpackString()
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("%w: ACK: %v", ErrBadFrame, err)
	}
	return l.acked(seq, code, detail)
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
// wakes every Flush, the pump and the ack reader, and tears down the
// connections.
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
	l.batches.cond.Broadcast()
	l.acks.cond.Broadcast()
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
