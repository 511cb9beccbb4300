package wiretrans

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"hbspk/internal/pvm"
)

// Handshake constants. Every connection opens with a HELLO carrying
// the protocol magic and version plus the dialer's identity (pid,
// nprocs, membership generation); the acceptor answers WELCOME with an
// error code, so identity or generation mismatches are rejected before
// any message flows.
const (
	protoMagic   = "hbspk-wire"
	protoVersion = 3 // 3: a BARRIER frame carries no deadline

	roleTransport int32 = 0 // a Loopback client carrying Deliver batches
	roleWorker    int32 = 1 // a worker process joining a hub
)

// Welcome codes.
const (
	welcomeOK int32 = iota
	welcomeRejected
)

const handshakeTimeout = 10 * time.Second

type helloInfo struct {
	role   int32
	pid    int32
	nprocs int32
	gen    int64
}

// link wraps one connection with a write lock (frames from concurrent
// writers must not interleave), the one buffered reader every read of
// the connection goes through — the handshake's too, so nothing buffered
// past a WELCOME is lost, and a burst of small frames costs one read(2) —
// and per-link frame accounting.
type link struct {
	conn      net.Conn
	br        *bufio.Reader // over conn; one reader goroutine at a time
	transport string        // metrics label: "unix" or "tcp"

	wmu     sync.Mutex
	scratch []byte      // frame (every header of a post, for batches) being encoded in place, guarded by wmu
	iov     [][]byte    // the pieces of a post's frames in wire order, reused across posts
	bufs    net.Buffers // iov as the vectored write consumes it; here so the call allocates nothing
	own     held        // what post has staged on a link with one sender, guarded by wmu
	writes  int         // vectored writes made, guarded by wmu

	// offerLocked's, guarded by wmu: conn's descriptor (set by offerable,
	// else nil), and what its system call is handed.
	raw     syscall.RawConn
	iovecs  []iovec
	offered int
	writev  func(fd uintptr) bool
}

// iovec is C's struct iovec. sysWritev is writev(2), returning what it
// wrote, 0 on any error (EAGAIN among them); nil without one (offer_writev.go).
type iovec struct {
	base *byte
	len  uintptr
}

var sysWritev func(fd uintptr, iov []iovec) int

func newLink(conn net.Conn, transport string) *link {
	return &link{conn: conn, br: bufio.NewReader(conn), transport: transport}
}

// offerable readies offerLocked on a link over a socket, where the
// platform has writev; on any other link an offer takes nothing.
func (l *link) offerable() {
	if sc, ok := l.conn.(syscall.Conn); ok && sysWritev != nil {
		if raw, err := sc.SyscallConn(); err == nil {
			l.raw, l.writev = raw, func(fd uintptr) bool {
				l.offered = sysWritev(fd, l.iovecs)
				return true // done, whatever the socket took: the RawConn never waits
			}
		}
	}
}

// writeFrame hands one encoded frame to a single Write.
func (l *link) writeFrame(kind byte, body []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	frame := AppendFrame(nil, kind, body)
	if _, err := l.conn.Write(frame); err != nil {
		return fmt.Errorf("wiretrans: write %s frame: %w: %w", l.transport, pvm.ErrPeerLost, err)
	}
	observeFrame(l.transport, true, len(frame))
	return nil
}

// writevLocked hands what the socket has not yet taken of the write
// staged in l.bufs (over l.iov) to a single vectored write (writev on a
// socket, one Write per piece elsewhere), waiting as long as it takes,
// and forgets the pieces: the link must not keep a sender's wire
// reachable. The caller holds wmu.
func (l *link) writevLocked() error {
	_, err := l.bufs.WriteTo(l.conn)
	clear(l.iov) // bufs shares the array, so this covers what a failed write left in it
	if err != nil {
		return fmt.Errorf("wiretrans: write %s frame: %w: %w", l.transport, pvm.ErrPeerLost, err)
	}
	return nil
}

// offerLocked makes one writev of the staged write that returns on
// EAGAIN instead of waiting, drops what the socket took and reports
// whether that was all (then forgetting the pieces, as writevLocked
// does) — never off a link offerable did not ready, or past IOV_MAX's
// 1024 pieces. The caller holds wmu.
func (l *link) offerLocked() bool {
	if l.raw == nil {
		return false
	}
	for _, b := range l.bufs[:min(len(l.bufs), 1024)] {
		l.iovecs = append(l.iovecs, iovec{&b[0], uintptr(len(b))})
	}
	l.offered = 0
	_ = l.raw.Write(l.writev) // a failed offer takes nothing; the waiting write reports it
	clear(l.iovecs)
	l.iovecs = l.iovecs[:0]
	for n := l.offered; n > 0; {
		if b := l.bufs[0]; len(b) > n {
			l.bufs[0] = b[n:]
			break
		}
		n -= len(l.bufs[0])
		l.bufs = l.bufs[1:]
	}
	if len(l.bufs) > 0 {
		return false
	}
	clear(l.iov)
	return true
}

// A BATCH body is seq, dst, count, then per message src, tag and the
// wire as a byte field. Each of the two headers packs to a fixed length,
// measured here off the encoder that writes them.
var (
	batchLead   = pvm.Wrap(beginFrame(nil, frameBatch)).PackInt64(0).PackInt32(0, 0).Len()
	batchPerMsg = pvm.Wrap(nil).PackInt32(0).PackInt64(0).PackBytesHeader(0).Len()
)

// held is what one sender has posted and its link has not yet written:
// the messages by value, in call order, and how they divide into BATCH
// frames. A batch marked pvm.Message.More waits here; the sender's first
// unmarked one takes everything held out in one vectored write
// (writeHeldLocked) — on a Loopback, one shared with the senders that
// post at the same time. Nothing but the caller's mark decides a hold.
type held struct {
	msgs   []pvm.Message
	frames []heldFrame
}

// heldFrame is one BATCH frame to be: n messages for dst, size bytes
// behind its length prefix (the prefix writeHeldLocked encodes). Whoever
// owns the link's numbering (Loopback) sets seq before the write.
type heldFrame struct {
	seq  int64
	dst  pvm.TID
	n    int
	size int
}

// add stages ms, all bound for dst, as BATCH frames that each stay under
// MaxFrame — a relay's mailbox holds a superstep's traffic from every
// sender. A single message over the limit goes out alone and fails at
// the reader.
func (h *held) add(dst pvm.TID, ms []pvm.Message) {
	h.msgs = append(h.msgs, ms...)
	for at := 0; at < len(ms); {
		to, size := at, batchLead-frameHeader
		for to < len(ms) && (to == at || size+batchPerMsg+ms[to].Len() <= MaxFrame) {
			size += batchPerMsg + ms[to].Len()
			to++
		}
		h.frames = append(h.frames, heldFrame{dst: dst, n: to - at, size: size})
		at = to
	}
}

// release drops the transport's reference to every held wire and empties
// h, keeping its arrays for the next post but nothing reachable in them.
func (h *held) release() {
	releaseAll(h.msgs)
	clear(h.msgs)
	h.msgs, h.frames = h.msgs[:0], h.frames[:0]
}

// writeHeldLocked writes everything in hs with one vectored write
// (stageHeldLocked) and ends the write (doneHeldLocked). The caller
// holds wmu.
func (l *link) writeHeldLocked(hs ...*held) (err error) {
	if l.stageHeldLocked(hs) {
		err = l.writevLocked()
	}
	l.doneHeldLocked(hs, err)
	return err
}

// stageHeldLocked stages everything in hs — one BATCH frame per entry of
// each, in order — as one vectored write that copies no payload byte:
// only the headers are packed, contiguously, into the link's scratch, and
// go out interleaved with the wires' own pieces, head then the tail the
// sender lent. It reports whether hs held anything. The caller holds wmu.
func (l *link) stageHeldLocked(hs []*held) bool {
	buf := l.scratch[:0]
	for _, h := range hs {
		ms := h.msgs
		for _, f := range h.frames {
			start := len(buf)
			hdr := pvm.Wrap(beginFrame(buf, frameBatch)).
				PackInt64(f.seq).
				PackInt32(int32(f.dst), int32(f.n))
			payload := 0
			for _, m := range ms[:f.n] {
				n := m.Len()
				hdr.PackInt32(int32(m.Src)).PackInt64(int64(m.Tag)).PackBytesHeader(n)
				payload += n
			}
			buf, ms = hdr.Bytes(), ms[f.n:]
			endFrame(buf, start, payload)
		}
	}
	if len(buf) == 0 {
		return false
	}
	l.scratch = buf
	// A frame's own header and its batch header ride with the first
	// message's.
	iov := l.iov[:0]
	at := 0
	for _, h := range hs {
		ms := h.msgs
		for _, f := range h.frames {
			to := at + batchLead
			for _, m := range ms[:f.n] {
				to += batchPerMsg
				iov = append(iov, buf[at:to])
				head, tail := m.Pieces()
				if len(head) > 0 {
					iov = append(iov, head)
				}
				if len(tail) > 0 {
					iov = append(iov, tail)
				}
				at = to
			}
			ms = ms[f.n:]
		}
	}
	l.writes++
	l.iov, l.bufs = iov, iov
	return true
}

// doneHeldLocked ends the write of hs: unless it failed, the observer
// hears of each frame, and every h is released, written or not. The
// caller holds wmu.
func (l *link) doneHeldLocked(hs []*held, err error) {
	for _, h := range hs {
		for _, f := range h.frames {
			if err == nil {
				observeFrame(l.transport, true, frameHeader+f.size)
			}
		}
		h.release()
	}
}

// post is Deliver on a link that has one sender (a worker's uplink, a
// relay's downlink): ms is staged behind what the sender already holds,
// and unless more follows, all of it is written.
func (l *link) post(dst pvm.TID, ms []pvm.Message, more bool) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.own.add(dst, ms)
	if more {
		return nil
	}
	return l.writeHeldLocked(&l.own)
}

// readFrame reads the next frame of a link that cannot know what comes
// next — the handshake, a worker's downlink, a relay — into a pvm.Frame
// drawn from the wire arena, the body a slice of it. The caller releases
// the frame once it has handled the body: what it injects from a BATCH
// takes references of its own, and nothing else it keeps may alias the
// frame. The Loopback's pump knows its frames' lengths and reads a burst
// of them at once instead (readSlab).
func (l *link) readFrame() (kind byte, body []byte, f pvm.Frame, err error) {
	size, err := frameSize(l.br)
	if err != nil {
		return 0, nil, f, err
	}
	f = pvm.NewFrame(size)
	buf := f.Bytes()
	if _, err := io.ReadFull(l.br, buf); err != nil {
		f.Release()
		return 0, nil, pvm.Frame{}, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	observeFrame(l.transport, false, frameHeader+size)
	return buf[0], buf[1:], f, nil
}

func (l *link) close() error { return l.conn.Close() }

// sendHello writes the opening HELLO frame.
func (l *link) sendHello(h helloInfo) error {
	body := pvm.Wrap(nil).
		PackString(protoMagic).
		PackInt32(protoVersion, h.role, h.pid, h.nprocs).
		PackInt64(h.gen)
	return l.writeFrame(frameHello, body.Bytes())
}

// readHello reads and validates the opening HELLO frame.
func (l *link) readHello() (helloInfo, error) {
	deadline := time.Now().Add(handshakeTimeout)
	_ = l.conn.SetReadDeadline(deadline)
	defer func() { _ = l.conn.SetReadDeadline(time.Time{}) }()
	kind, body, f, err := l.readFrame()
	if err != nil {
		return helloInfo{}, fmt.Errorf("wiretrans: handshake read: %w", err)
	}
	defer f.Release()
	if kind != frameHello {
		return helloInfo{}, fmt.Errorf("%w: expected HELLO, got kind %d", ErrBadFrame, kind)
	}
	b := pvm.Wrap(body)
	magic, err := b.UnpackString()
	if err != nil {
		return helloInfo{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != protoMagic {
		return helloInfo{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, magic)
	}
	var h helloInfo
	version, err := b.UnpackInt32()
	if err == nil && version != protoVersion {
		return helloInfo{}, fmt.Errorf("%w: protocol version %d, want %d", ErrBadFrame, version, protoVersion)
	}
	if err == nil {
		h.role, err = b.UnpackInt32()
	}
	if err == nil {
		h.pid, err = b.UnpackInt32()
	}
	if err == nil {
		h.nprocs, err = b.UnpackInt32()
	}
	if err == nil {
		h.gen, err = b.UnpackInt64()
	}
	if err != nil {
		return helloInfo{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return h, nil
}

// sendWelcome answers a HELLO.
func (l *link) sendWelcome(code int32, detail string) error {
	body := pvm.Wrap(nil).PackInt32(code).PackString(detail)
	return l.writeFrame(frameWelcome, body.Bytes())
}

// readWelcome reads the WELCOME answer and surfaces a rejection as an
// error.
func (l *link) readWelcome() error {
	deadline := time.Now().Add(handshakeTimeout)
	_ = l.conn.SetReadDeadline(deadline)
	defer func() { _ = l.conn.SetReadDeadline(time.Time{}) }()
	kind, body, f, err := l.readFrame()
	if err != nil {
		return fmt.Errorf("wiretrans: handshake read: %w", err)
	}
	defer f.Release()
	if kind != frameWelcome {
		return fmt.Errorf("%w: expected WELCOME, got kind %d", ErrBadFrame, kind)
	}
	b := pvm.Wrap(body)
	code, err := b.UnpackInt32()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if code != welcomeOK {
		detail, _ := b.UnpackString()
		return fmt.Errorf("wiretrans: handshake rejected: %s", detail)
	}
	return nil
}

// dialRetry dials with retries until the deadline — worker processes
// race the coordinator's listener at startup, and a connection refused
// within the window is an ordering artifact, not a failure.
func dialRetry(network, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("wiretrans: dial %s %s: %w (last: %v)", network, addr, pvm.ErrTimeout, lastErr)
		}
		conn, err := net.DialTimeout(network, addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}
