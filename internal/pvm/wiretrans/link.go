package wiretrans

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
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
	protoVersion = 2 // 2: the hub/worker plane carries BATCH frames and nanosecond deadlines

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
// writers must not interleave) and per-link frame accounting.
type link struct {
	conn      net.Conn
	transport string // metrics label: "unix" or "tcp"

	wmu     sync.Mutex
	scratch []byte      // frame (its headers, for a batch) being encoded in place, guarded by wmu
	iov     [][]byte    // the pieces of a batch frame in wire order, reused across batches
	bufs    net.Buffers // iov as the vectored write consumes it; here so the call allocates nothing
}

func (l *link) writeFrame(kind byte, body []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.writeLocked(AppendFrame(nil, kind, body))
}

// writeLocked hands whole encoded frames to a single Write. The caller
// holds wmu.
func (l *link) writeLocked(frames []byte) error {
	if _, err := l.conn.Write(frames); err != nil {
		return fmt.Errorf("wiretrans: write %s frame: %w: %w", l.transport, pvm.ErrPeerLost, err)
	}
	for len(frames) > 0 {
		n := frameHeader + int(binary.BigEndian.Uint32(frames))
		observeFrame(l.transport, true, n)
		frames = frames[n:]
	}
	return nil
}

// writevLocked hands the one frame whose pieces are in l.iov to a single
// vectored write (writev on a socket, one Write per piece elsewhere)
// and forgets the pieces: the link must not keep a sender's wire
// reachable. The caller holds wmu.
func (l *link) writevLocked() error {
	l.bufs = l.iov
	n, err := l.bufs.WriteTo(l.conn)
	clear(l.iov) // bufs shares the array, so this covers what a failed write left in it
	if err != nil {
		return fmt.Errorf("wiretrans: write %s frame: %w: %w", l.transport, pvm.ErrPeerLost, err)
	}
	observeFrame(l.transport, true, int(n))
	return nil
}

// A BATCH body is seq, dst, count, then per message src, tag and the
// wire as a byte field. Each of the two headers packs to a fixed length,
// measured here off the encoder that writes them.
var (
	batchLead   = pvm.Wrap(beginFrame(nil, frameBatch)).PackInt64(0).PackInt32(0, 0).Len()
	batchPerMsg = pvm.Wrap(nil).PackInt32(0).PackInt64(0).PackBytesHeader(0).Len()
)

// writeBatchLocked writes ms as one BATCH frame without copying a
// payload byte: only the headers are packed, contiguously, into the
// link's scratch, and one vectored write sends them interleaved with
// the wires' own pieces — head, then the tail the sender lent. The
// caller holds wmu and releases ms.
func (l *link) writeBatchLocked(seq int64, dst pvm.TID, ms []pvm.Message) error {
	hdr := pvm.Wrap(beginFrame(l.scratch[:0], frameBatch)).
		PackInt64(seq).
		PackInt32(int32(dst), int32(len(ms)))
	payload := 0
	for _, m := range ms {
		hdr.PackInt32(int32(m.Src)).PackInt64(int64(m.Tag)).PackBytesHeader(m.Len())
		payload += m.Len()
	}
	l.scratch = hdr.Bytes()
	endFrame(l.scratch, 0, payload)
	// The frame and batch header ride with the first message's.
	l.iov = l.iov[:0]
	at := 0
	for i, m := range ms {
		to := batchLead + (i+1)*batchPerMsg
		l.iov = append(l.iov, l.scratch[at:to])
		head, tail := m.Pieces()
		if len(head) > 0 {
			l.iov = append(l.iov, head)
		}
		if len(tail) > 0 {
			l.iov = append(l.iov, tail)
		}
		at = to
	}
	return l.writevLocked()
}

// sendBatches writes ms, all bound for dst, as BATCH frames that each
// stay under MaxFrame — a relay's mailbox holds a superstep's traffic
// from every sender — and releases them, written or not. A single
// message over the limit goes out alone and fails at the reader.
func (l *link) sendBatches(dst pvm.TID, ms []pvm.Message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	defer releaseAll(ms)
	for at := 0; at < len(ms); {
		to, size := at, batchLead-frameHeader
		for to < len(ms) && (to == at || size+batchPerMsg+ms[to].Len() <= MaxFrame) {
			size += batchPerMsg + ms[to].Len()
			to++
		}
		if err := l.writeBatchLocked(0, dst, ms[at:to]); err != nil {
			return err
		}
		at = to
	}
	return nil
}

// readFrame reads one frame into a buffer of its own: the body is the
// caller's to keep or give away.
func (l *link) readFrame() (kind byte, body []byte, err error) {
	kind, body, _, n, err := ReadFrame(l.conn, nil)
	if err == nil {
		observeFrame(l.transport, false, n)
	}
	return kind, body, err
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
	kind, body, err := l.readFrame()
	if err != nil {
		return helloInfo{}, fmt.Errorf("wiretrans: handshake read: %w", err)
	}
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
	kind, body, err := l.readFrame()
	if err != nil {
		return fmt.Errorf("wiretrans: handshake read: %w", err)
	}
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
