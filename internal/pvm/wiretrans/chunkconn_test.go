package wiretrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

// chunkConn is a net.Conn test double that fragments traffic: Reads
// return at most maxRead bytes and Writes are issued to the underlying
// conn in maxWrite-byte pieces — the worst-case syscall behavior of a
// congested TCP stream, which the frame layer must reassemble exactly.
type chunkConn struct {
	net.Conn
	maxRead, maxWrite int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if c.maxRead > 0 && len(p) > c.maxRead {
		p = p[:c.maxRead]
	}
	return c.Conn.Read(p)
}

func (c *chunkConn) Write(p []byte) (int, error) {
	if c.maxWrite <= 0 {
		return c.Conn.Write(p)
	}
	total := 0
	for len(p) > 0 {
		n := c.maxWrite
		if n > len(p) {
			n = len(p)
		}
		m, err := c.Conn.Write(p[:n])
		total += m
		if err != nil {
			return total, err
		}
		p = p[m:]
	}
	return total, nil
}

func TestFramesSurviveChunkedConn(t *testing.T) {
	// Every read returns 1 byte, every write is split into 3-byte
	// pieces: frames must reassemble bit-exact anyway.
	a, b := net.Pipe()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	sender := newLink(&chunkConn{Conn: a, maxWrite: 3}, "test")
	receiver := newLink(&chunkConn{Conn: b, maxRead: 1}, "test")

	frames := []struct {
		kind byte
		body []byte
	}{
		{frameHello, nil},
		{frameBatch, bytes.Repeat([]byte{0xC3}, 1000)},
		{frameAck, []byte{0}},
		{frameBye, []byte("goodbye")},
	}
	errc := make(chan error, 1)
	go func() {
		for _, fr := range frames {
			if err := sender.writeFrame(fr.kind, fr.body); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, want := range frames {
		kind, body, f, err := receiver.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want.kind || !bytes.Equal(body, want.body) {
			t.Fatalf("frame %d mutated: kind %d→%d, %d→%d bytes", i, want.kind, kind, len(want.body), len(body))
		}
		f.Release()
	}
	if err := <-errc; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// chunkedTransport is a Loopback whose link is an in-memory pipe behind
// fragmenting conns — 3-byte writes out of Deliver, 1-byte reads into
// the pump — and which keeps every byte Deliver wrote.
type chunkedTransport struct {
	*Loopback
	wrote recordConn
}

type recordConn struct {
	chunkConn
	buf []byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return c.chunkConn.Write(p)
}

// lendMailbox spawns a task that only parks, so that the caller can
// drain its mailbox from outside; stop lets it return.
func lendMailbox(sys *pvm.System) (task *pvm.Task, stop func()) {
	out, done := make(chan *pvm.Task, 1), make(chan struct{})
	sys.Spawn("parked", func(t *pvm.Task) error {
		out <- t
		<-done
		return nil
	})
	return <-out, func() { close(done) }
}

func (c *chunkedTransport) Attach(sys *pvm.System) error {
	a, b := net.Pipe()
	c.wrote.chunkConn = chunkConn{Conn: a, maxWrite: 3}
	c.sys, c.cli = sys, newLink(&c.wrote, "test")
	c.wg.Add(2)
	go c.serverPump(newLink(&chunkConn{Conn: b, maxRead: 1}, "test"))
	go c.ackReader()
	return nil
}

func TestVectoredDeliverWritesTheSameFrame(t *testing.T) {
	// Deliver writes a batch as header pieces interleaved with the wires'
	// own pieces. What reaches the conn must be, byte for byte, the frame
	// the one-buffer encoding builds from the same messages — 0-, 1- and
	// 3-byte wires included, and wires whose last field was lent and rides
	// as a tail — and, fragmented both ways, must decode to the same
	// messages in posting order.
	testutil.CheckGoroutines(t)
	lb, err := NewLoopback("unix")
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	tr := &chunkedTransport{Loopback: lb}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })

	const tag = 6
	lent := bytes.Repeat([]byte("lent "), 9)
	batch := [][]byte{{0x5A}, {1, 2, 3}, {}, pvm.Wrap(nil).PackInt64(77).Bytes()}
	single := []byte("after the batch")
	// Head only, head + tail, head + empty tail, nothing but a tail, and a
	// tailed wire next to a plain pooled one.
	tailed := [][]byte{
		pvm.Wrap(nil).PackInt32(1).Bytes(),
		pvm.Wrap(nil).PackInt32(2).PackBytes(lent).Bytes(),
		pvm.Wrap(nil).PackInt32(3).PackBytes(nil).Bytes(),
		pvm.Wrap(nil).PackBytes(lent[:1]).Bytes(),
		pvm.Wrap(nil).PackInt64(78).Bytes(),
	}
	flushed := make(chan struct{})
	recv := sys.Spawn("recv", func(task *pvm.Task) error {
		<-flushed
		msgs := task.TryRecvAll(pvm.AnySource, tag)
		want := append(append(append([][]byte(nil), batch...), single), tailed...)
		if len(msgs) != len(want) {
			return fmt.Errorf("%d messages, want %d", len(msgs), len(want))
		}
		for i, m := range msgs {
			if got := m.Buffer().Bytes(); !bytes.Equal(got, want[i]) {
				return fmt.Errorf("message %d = %x, want %x", i, got, want[i])
			}
			m.Release()
		}
		return nil
	})
	send := sys.Spawn("send", func(task *pvm.Task) error {
		defer close(flushed)
		// The last one rides a pooled wire, as every engine send does.
		bufs := []*pvm.Buffer{pvm.Wrap(batch[0]), pvm.Wrap(batch[1]), pvm.Wrap(batch[2]), pvm.NewBuffer().PackInt64(77)}
		if err := task.SendBatch(recv, tag, bufs); err != nil {
			return err
		}
		if err := task.Send(recv, tag, pvm.Wrap(single)); err != nil {
			return err
		}
		bufs = []*pvm.Buffer{
			pvm.NewBuffer().PackInt32(1),
			pvm.NewBuffer().PackInt32(2).PackBytesBorrowed(lent),
			pvm.NewBuffer().PackInt32(3).PackBytesBorrowed(nil),
			pvm.NewBuffer().PackBytesBorrowed(lent[:1]),
			pvm.NewBuffer().PackInt64(78),
		}
		if err := task.SendBatch(recv, tag, bufs); err != nil {
			return err
		}
		return task.Flush()
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	var want []byte
	for seq, wires := range [][][]byte{batch, {single}, tailed} {
		body := pvm.Wrap(nil).PackInt64(int64(seq+1)).PackInt32(int32(recv), int32(len(wires)))
		for _, w := range wires {
			body.PackInt32(int32(send)).PackInt64(tag).PackBytes(w)
		}
		want = AppendFrame(want, frameBatch, body.Bytes())
	}
	if !bytes.Equal(tr.wrote.buf, want) {
		t.Fatalf("Deliver wrote\n%x\nthe one-buffer encoding is\n%x", tr.wrote.buf, want)
	}
}

// keepingTransport is a chunkedTransport that keeps the message values of
// every batch it was handed — not their bytes — to ask them, after
// Deliver has returned, what they still reference.
type keepingTransport struct {
	chunkedTransport
	mu   sync.Mutex
	kept []pvm.Message
}

func (k *keepingTransport) Deliver(dst pvm.TID, ms []pvm.Message) error {
	k.mu.Lock()
	k.kept = append(k.kept, ms...)
	k.mu.Unlock()
	return k.chunkedTransport.Deliver(dst, ms)
}

func TestDeliverEndsTheBorrowOnEveryPath(t *testing.T) {
	// The record of a tailed wire lets go of the sender's slice by the time
	// the call that posted it returns: after the write, after a write that
	// failed, and on the early return of a link already failed — for the
	// sender whose call made the write and for one whose post rode in it
	// (two senders post together; at GOMAXPROCS 1 the second waits behind
	// the first). Each sender overwrites its slice the moment its call
	// returns, so a write still reading it delivers the overwritten bytes,
	// and the pipe copies what is written in Go, so under -race it is also
	// a report.
	for _, path := range []string{"written", "write error", "failed link"} {
		t.Run(path, func(t *testing.T) {
			everyProcs(t, func(t *testing.T) {
				lb, err := NewLoopback("unix")
				if err != nil {
					t.Fatalf("NewLoopback: %v", err)
				}
				tr := &keepingTransport{chunkedTransport: chunkedTransport{Loopback: lb}}
				sys := pvm.NewSystem()
				if err := sys.SetTransport(tr); err != nil {
					t.Fatalf("SetTransport: %v", err)
				}
				t.Cleanup(func() { _ = tr.Close() })
				switch path {
				case "write error":
					// Writes time out; the pump, reading the other end, sees nothing.
					_ = tr.wrote.Conn.SetWriteDeadline(time.Unix(1, 0))
				case "failed link":
					tr.fail(errors.New("down before the send"))
				}
				const senders = 2
				start := make(chan struct{})
				for i := 0; i < senders; i++ {
					sys.Spawn("send", func(task *pvm.Task) error {
						lent := []byte("the sender wants this back")
						want := [][]byte{pvm.Wrap(nil).PackBytes(lent).Bytes(), pvm.Wrap(nil).PackInt32(1).PackBytes(lent).Bytes()}
						bufs := []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(lent), pvm.NewBuffer().PackInt32(1).PackBytesBorrowed(lent)}
						<-start
						err := task.SendBatch(task.TID(), 1, bufs)
						clear(lent)
						if ferr := task.Flush(); err == nil {
							err = ferr
						}
						if (err == nil) != (path == "written") {
							t.Errorf("sender %d: send and flush = %v", i, err)
						}
						for j, m := range task.TryRecvAll(task.TID(), 1) {
							if got := m.Buffer().Bytes(); !bytes.Equal(got, want[j]) {
								t.Errorf("sender %d, message %d = %x, want %x", i, j, got, want[j])
							}
							m.Release()
						}
						return nil
					})
				}
				close(start)
				if err := sys.Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				if len(tr.kept) != 2*senders {
					t.Fatalf("transport saw %d messages, want %d", len(tr.kept), 2*senders)
				}
				for i, m := range tr.kept {
					if _, tail := m.Pieces(); tail != nil {
						t.Errorf("message %d still holds the sender's slice after Deliver", i)
					}
				}
			})
		})
	}
}

func TestReadFrameTypedErrors(t *testing.T) {
	big := make([]byte, 4)
	big[0], big[1], big[2], big[3] = 0xFF, 0xFF, 0xFF, 0xFF
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"clean EOF", nil, io.EOF},
		{"header cut short", []byte{0, 0}, ErrTruncatedFrame},
		{"zero length", []byte{0, 0, 0, 0}, ErrBadFrame},
		{"oversize length", append(big, 1), ErrFrameTooBig},
		{"body cut short", AppendFrame(nil, frameBarrier, bytes.Repeat([]byte{1}, 64))[:10], ErrTruncatedFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, _, err := ReadFrame(bytes.NewReader(tc.raw), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestHandshakeOverChunkedConn(t *testing.T) {
	// The full HELLO/WELCOME exchange through fragmenting conns.
	a, b := net.Pipe()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	_ = a.SetDeadline(time.Now().Add(5 * time.Second))
	_ = b.SetDeadline(time.Now().Add(5 * time.Second))
	dialer := newLink(&chunkConn{Conn: a, maxRead: 1, maxWrite: 2}, "test")
	acceptor := newLink(&chunkConn{Conn: b, maxRead: 1, maxWrite: 2}, "test")

	errc := make(chan error, 1)
	go func() {
		if err := dialer.sendHello(helloInfo{role: roleWorker, pid: 2, nprocs: 4, gen: 9}); err != nil {
			errc <- err
			return
		}
		errc <- dialer.readWelcome()
	}()
	h, err := acceptor.readHello()
	if err != nil {
		t.Fatalf("readHello: %v", err)
	}
	if h.role != roleWorker || h.pid != 2 || h.nprocs != 4 || h.gen != 9 {
		t.Fatalf("hello = %+v", h)
	}
	if err := acceptor.sendWelcome(welcomeOK, ""); err != nil {
		t.Fatalf("sendWelcome: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("dialer: %v", err)
	}
}

// pumpProbeConn is the pump's side of a chunkConn that counts the pump's
// reads, its writes and the ack frames in them.
type pumpProbeConn struct {
	chunkConn
	reads, writes, acks int
}

func (c *pumpProbeConn) Read(p []byte) (int, error) {
	c.reads++
	return c.chunkConn.Read(p)
}

func (c *pumpProbeConn) Write(p []byte) (int, error) {
	c.writes++
	for q := p; len(q) >= frameHeader; q = q[frameHeader+int(binary.BigEndian.Uint32(q)):] {
		c.acks++
	}
	return c.chunkConn.Write(p)
}

// frameLens is the wire length of each frame in wire, in order.
func frameLens(wire []byte) []int {
	var lens []int
	for len(wire) >= frameHeader {
		n := frameHeader + int(binary.BigEndian.Uint32(wire))
		lens = append(lens, n)
		wire = wire[n:]
	}
	return lens
}

// oweBurst owes the pump frames of the given wire lengths, as writeQueue
// owes it the frames it is about to write.
func (l *Loopback) oweBurst(lens ...int) {
	l.mu.Lock()
	l.batches.owed += len(lens)
	l.batches.lens = append(l.batches.lens, lens...)
	l.batches.cond.Signal()
	l.mu.Unlock()
}

func TestPumpAcksAnOwedBurstInOneWrite(t *testing.T) {
	// A burst of batches in one write, all of them owed to the pump. Read a
	// byte at a time or whole, the pump acks the burst with one write once
	// it has read all of it, and it reads nothing past the burst: with
	// every frame it was owed in hand it writes its acks and waits off the
	// socket, rather than go back to find the socket empty. Read whole,
	// frames share one read while they fit a slab: eight small ones take
	// one read; two 100 KiB frames share the first slab, a third takes the
	// next, a frame longer than a slab is read alone and the small frame
	// behind it by a read of its own — four reads.
	small := []int{7, 7, 7, 7, 7, 7, 7, 7}
	for _, tc := range []struct {
		name      string
		maxRead   int
		sizes     []int // payload bytes of each frame of the burst
		wantReads int   // 0: one a byte
	}{
		{"byte reads", 1, small, 0},
		{"whole reads", 0, small, 1},
		{"slabs", 0, []int{100 << 10, 100 << 10, 100 << 10, maxSlab, 7}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			sys := pvm.NewSystem()
			hold := make(chan struct{})
			payloads := make([][]byte, len(tc.sizes))
			recv := sys.Spawn("recv", func(task *pvm.Task) error {
				<-hold
				msgs := task.TryRecvAll(pvm.AnySource, 4)
				if len(msgs) != len(payloads) {
					return fmt.Errorf("%d messages injected, want %d", len(msgs), len(payloads))
				}
				for i, m := range msgs {
					if !bytes.Equal(m.Buffer().Bytes(), payloads[i]) {
						return fmt.Errorf("message %d: %d bytes, not the %d sent", i, len(m.Buffer().Bytes()), len(payloads[i]))
					}
					m.Release()
				}
				return nil
			})
			var frames []byte
			for i, n := range tc.sizes {
				payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
				body := pvm.Wrap(nil).PackInt64(int64(i+1)).PackInt32(int32(recv), 1).
					PackInt32(7).PackInt64(4).PackBytes(payloads[i])
				frames = AppendFrame(frames, frameBatch, body.Bytes())
			}

			lb, err := NewLoopback("unix")
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			lb.sys = sys
			lb.oweBurst(frameLens(frames)...)
			a, b := net.Pipe()
			_ = a.SetDeadline(time.Now().Add(10 * time.Second))
			probe := &pumpProbeConn{chunkConn: chunkConn{Conn: b, maxRead: tc.maxRead}}
			lb.wg.Add(1)
			go lb.serverPump(newLink(probe, "test"))
			go func() { _, _ = a.Write(frames) }()

			var scratch []byte
			for seq := int64(1); seq <= int64(len(tc.sizes)); seq++ {
				kind, body, next, _, err := ReadFrame(a, scratch)
				if err != nil {
					t.Fatalf("ack %d: %v", seq, err)
				}
				scratch = next
				ack := pvm.Wrap(body)
				got, _ := ack.UnpackInt64()
				code, _ := ack.UnpackInt32()
				if kind != frameAck || got != seq || code != ackOK {
					t.Fatalf("ack %d: kind %d seq %d code %d", seq, kind, got, code)
				}
			}
			_ = lb.Close() // wakes the pump, which waits for frames it is owed
			_ = a.Close()
			close(hold)
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
			if probe.acks != len(tc.sizes) || probe.writes != 1 {
				t.Fatalf("%d acks in %d writes, want %d in 1", probe.acks, probe.writes, len(tc.sizes))
			}
			wantReads := tc.wantReads
			if wantReads == 0 {
				wantReads = len(frames)
			}
			if probe.reads != wantReads {
				t.Fatalf("pump made %d reads of a %d-byte burst, want %d", probe.reads, len(frames), wantReads)
			}
		})
	}
}

// skewConn is a chunkConn whose first Write announces its first frame one
// byte longer than it is: the header on the wire disagrees with the
// length the pump was owed for that frame.
type skewConn struct {
	chunkConn
	skewed bool
}

func (c *skewConn) Write(p []byte) (int, error) {
	if !c.skewed && len(p) >= frameHeader {
		c.skewed = true
		p = append([]byte(nil), p...)
		binary.BigEndian.PutUint32(p, binary.BigEndian.Uint32(p)+1)
	}
	return c.chunkConn.Write(p)
}

// skewedTransport is a chunkedTransport whose client writes go through a
// skewConn and whose pump reads maxRead bytes at a time (0: whole).
type skewedTransport struct {
	*Loopback
	maxRead int
}

func (s *skewedTransport) Attach(sys *pvm.System) error {
	a, b := net.Pipe()
	s.sys, s.cli = sys, newLink(&skewConn{chunkConn: chunkConn{Conn: a, maxWrite: 3}}, "test")
	s.wg.Add(2)
	go s.serverPump(newLink(&chunkConn{Conn: b, maxRead: s.maxRead}, "test"))
	go s.ackReader()
	return nil
}

func TestOwedLengthMismatchFailsTheLink(t *testing.T) {
	// Three senders post two frames each in one group write — the test
	// holds the write lock until all have queued — and the first frame's
	// header announces a byte more than the pump was owed for it. The pump
	// fails the link with ErrBadFrame; each post went out whole, so each
	// call succeeds, and every sender's Flush returns a *pvm.DeliveryError
	// carrying it. Nothing is left running, read whole or a byte at a time.
	for _, tc := range []struct {
		name    string
		maxRead int
	}{{"byte reads", 1}, {"whole reads", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			everyProcs(t, func(t *testing.T) {
				lb, err := NewLoopback("unix")
				if err != nil {
					t.Fatalf("NewLoopback: %v", err)
				}
				tr := &skewedTransport{Loopback: lb, maxRead: tc.maxRead}
				sys := pvm.NewSystem()
				if err := sys.SetTransport(tr); err != nil {
					t.Fatalf("SetTransport: %v", err)
				}
				t.Cleanup(func() { _ = tr.Close() })

				dsts, stop := spawnIdle(sys, 2)
				const senders = 3
				start := make(chan struct{})
				var sent sync.WaitGroup
				sent.Add(senders)
				postErrs, flushErrs := make([]error, senders), make([]error, senders)
				for i := 0; i < senders; i++ {
					sys.Spawn("send", func(task *pvm.Task) error {
						defer sent.Done()
						var post []pvm.Batch
						for _, dst := range dsts {
							post = append(post, pvm.Batch{Dst: dst, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt32(int32(i))}})
						}
						<-start
						postErrs[i] = task.SendBatches(1, post)
						flushErrs[i] = task.Flush()
						return nil
					})
				}
				tr.cli.wmu.Lock()
				close(start)
				queued := func() int {
					tr.mu.Lock()
					defer tr.mu.Unlock()
					return len(tr.queue)
				}
				for queued() < senders {
					runtime.Gosched()
				}
				tr.cli.wmu.Unlock()
				sent.Wait()
				stop()
				if err := sys.Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				tr.mu.Lock()
				linkErr := tr.failErr
				tr.mu.Unlock()
				if !errors.Is(linkErr, ErrBadFrame) {
					t.Fatalf("link failure %v, want ErrBadFrame", linkErr)
				}
				var de *pvm.DeliveryError
				for i := 0; i < senders; i++ {
					if postErrs[i] != nil {
						t.Errorf("sender %d: post = %v, want nil: it went out whole", i, postErrs[i])
					}
					if err := flushErrs[i]; !errors.As(err, &de) || !errors.Is(err, ErrBadFrame) {
						t.Errorf("sender %d: Flush = %v, want a *pvm.DeliveryError wrapping ErrBadFrame", i, err)
					}
				}
			})
		})
	}
}

// countConn counts the Reads made of a connection.
type countConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// A link reads its connection through one buffered reader from the first
// byte: a WELCOME and the small frames that arrived in the same segment
// behind it cost one Read between them, and none of them is lost to a
// reader the handshake kept to itself. Two Reads per frame — prefix, then
// body — before the link had the reader.
func TestLinkReadsABurstWithOneRead(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	const frames = 20
	burst := AppendFrame(nil, frameWelcome, pvm.Wrap(nil).PackInt32(welcomeOK).PackString("").Bytes())
	for i := 1; i < frames; i++ {
		burst = AppendFrame(burst, frameAck, []byte{byte(i)})
	}
	werr := make(chan error, 1)
	go func() { _, err := a.Write(burst); werr <- err }()

	conn := &countConn{Conn: b}
	lk := newLink(conn, "test")
	if err := lk.readWelcome(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < frames; i++ {
		kind, body, f, err := lk.readFrame()
		if err != nil || kind != frameAck || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("frame %d: kind %d body %v err %v", i, kind, body, err)
		}
		f.Release()
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if got := conn.reads.Load(); got != 1 {
		t.Errorf("%d Reads for a burst of %d frames in one segment, want 1", got, frames)
	}
}
