package wiretrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hbspk/internal/pvm"
)

// chunkReader yields at most chunk bytes per Read — the io-level half
// of split-read robustness (the net.Conn double lives in
// chunkconn_test.go).
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(frameBatch), []byte{}, 1)
	f.Add(byte(frameBarrier), []byte("hello"), 3)
	f.Add(byte(0xFF), bytes.Repeat([]byte{0xAB}, 4096), 7)
	f.Fuzz(func(t *testing.T, kind byte, body []byte, chunk int) {
		if chunk < 1 {
			chunk = 1
		}
		frame := AppendFrame(nil, kind, body)
		gotKind, gotBody, _, n, err := ReadFrame(&chunkReader{r: bytes.NewReader(frame), chunk: chunk}, nil)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("frame length %d, wrote %d", n, len(frame))
		}
		if gotKind != kind || !bytes.Equal(gotBody, body) {
			t.Fatalf("frame mutated: kind %d→%d, body %d→%d bytes", kind, gotKind, len(body), len(gotBody))
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add(AppendFrame(nil, frameAck, []byte("ok")))
	f.Add(AppendFrame(nil, frameBatch, bytes.Repeat([]byte{1}, 100))[:20]) // truncated
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, body, _, n, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			// Every failure must be one of the typed errors or a clean
			// EOF — never a panic, never unbounded allocation.
			switch {
			case errors.Is(err, io.EOF),
				errors.Is(err, ErrTruncatedFrame),
				errors.Is(err, ErrFrameTooBig),
				errors.Is(err, ErrBadFrame):
			default:
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		// A parsed frame must re-encode to exactly the bytes consumed.
		if n > len(raw) {
			t.Fatalf("claimed %d bytes from a %d-byte input", n, len(raw))
		}
		if got := AppendFrame(nil, kind, body); !bytes.Equal(got, raw[:n]) {
			t.Fatalf("parse/encode mismatch on %d-byte frame", n)
		}
	})
}

// FuzzBatchBody drives the transport's BATCH decoder with arbitrary
// bodies: a corrupt peer must produce a typed ack, never a panic, and
// whatever the decoder did hand to Inject before it gave up — each a
// reference on the frame — must lie inside the body it was given, and
// hold the frame until released. Bodies addressed to the one parked task
// inject; any other destination acks no-such-task.
func FuzzBatchBody(f *testing.F) {
	sys := pvm.NewSystem()
	task, stop := lendMailbox(sys)
	f.Cleanup(func() {
		stop()
		_ = sys.Wait()
	})
	dst := task.TID()
	l := &Loopback{network: "tcp", sys: sys}
	valid := func(dst pvm.TID, msgs int) []byte {
		b := pvm.Wrap(nil).PackInt64(7).PackInt32(int32(dst), int32(msgs))
		for i := 0; i < msgs; i++ {
			b.PackInt32(int32(i)).PackInt64(int64(100 + i)).PackBytes([]byte("payload")[:i%8])
		}
		return b.Bytes()
	}
	f.Add(valid(dst, 0))
	f.Add(valid(dst, 2))
	f.Add(valid(dst, 9)[:150]) // cut inside a later message: the earlier ones stay injected
	f.Add(valid(dst+1, 2))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("BATCH decoder panicked: %v", r)
			}
		}()
		f := pvm.NewFrame(len(body))
		frame := f.Bytes()
		copy(frame, body)
		injectBatch(l.sys, f, frame)
		f.Release()
		// The arena hands the frame straight back out unless a message holds it.
		scribble := pvm.NewFrame(len(body))
		for i := range scribble.Bytes() {
			scribble.Bytes()[i] = ^body[i]
		}
		for _, m := range task.TryRecvAll(pvm.AnySource, pvm.AnyTag) {
			p := m.Buffer().Bytes()
			if !sliceOf(p, frame) || !bytes.Equal(frame, body) {
				t.Fatalf("injected %d bytes that are not a slice of the %d-byte body, or the frame was recycled under them", len(p), len(body))
			}
			m.Release()
		}
		scribble.Release()
	})
}

// FuzzAckBody answers one pending post with an arbitrary ACK body, as a
// pump the test plays by hand: a body that decodes whole — seq, verdict,
// detail — and names the post settles it with its verdict, the link up;
// anything else — too short, a detail that does not decode, a batch
// nobody posted — fails the link and the post with ErrBadFrame. Never a
// panic, never a hang, never a post settled by a body that does not decode.
func FuzzAckBody(f *testing.F) {
	ack := func(seq int64, code int32, detail string) []byte {
		return pvm.Wrap(nil).PackInt64(seq).PackInt32(code).PackString(detail).Bytes()
	}
	f.Add([]byte{})
	f.Add(ack(1, ackOK, ""))
	f.Add(ack(1, ackHalted, ""))
	f.Add(ack(2, ackOK, ""))
	f.Add(ack(-1, 99, "no such verdict"))
	f.Add(ack(1, ackNoTask, "detail")[:12])
	f.Add(ack(1, ackOK, "")[:12])
	f.Add(ack(1, ackOK, "hello")[:18])
	f.Fuzz(func(t *testing.T, body []byte) {
		flushErr, linkErr := answerOnePost(t, body)
		b := pvm.Wrap(body)
		seq, err := b.UnpackInt64()
		var code int32
		if err == nil {
			code, err = b.UnpackInt32()
		}
		if err == nil {
			_, err = b.UnpackString()
		}
		switch {
		case err == nil && seq == 1:
			if linkErr != nil || (code == ackOK) != (flushErr == nil) {
				t.Fatalf("ack body %x (verdict %d): Flush %v, link failure %v; want the post settled with its verdict", body, code, flushErr, linkErr)
			}
		case !errors.Is(linkErr, ErrBadFrame) || !errors.Is(flushErr, ErrBadFrame):
			t.Fatalf("ack body %x: Flush %v, link failure %v; want ErrBadFrame for both", body, flushErr, linkErr)
		}
	})
}

// burstConn is the pump's side of a connection played from memory: reads
// come from the wire bytes and then io.EOF, and writes land in out, the
// first announced on wrote.
type burstConn struct {
	net.Conn
	in    *bytes.Reader
	out   bytes.Buffer
	wrote chan struct{}
}

func (c *burstConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *burstConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *burstConn) Close() error                    { return nil }
func (c *burstConn) SetReadDeadline(time.Time) error { return nil }

// FuzzPumpBurst drives the server pump with arbitrary wire bytes and an
// arbitrary burst of owed lengths (big-endian uint16s, so that an exec
// allocates little; TestPumpAcksAnOwedBurstInOneWrite reads a frame past
// a slab): it must ack the whole burst with one write — one ack frame
// per owed frame — or fail the link with a typed error, never panic and
// never hang. Frames addressed to the one parked task inject; any other
// destination acks no-such-task.
func FuzzPumpBurst(f *testing.F) {
	sys := pvm.NewSystem()
	task, stop := lendMailbox(sys)
	f.Cleanup(func() {
		stop()
		_ = sys.Wait()
	})
	batch := func(seq int64, dst pvm.TID, payload string) []byte {
		body := pvm.Wrap(nil).PackInt64(seq).PackInt32(int32(dst), 1).PackInt32(7).PackInt64(4).PackBytes([]byte(payload))
		return AppendFrame(nil, frameBatch, body.Bytes())
	}
	owe := func(frames ...[]byte) []byte {
		var lens []byte
		for _, fr := range frames {
			lens = binary.BigEndian.AppendUint16(lens, uint16(len(fr)))
		}
		return lens
	}
	one, two := batch(1, task.TID(), "payload"), batch(2, task.TID()+1, "")
	f.Add(append(one, two...), owe(one, two))
	f.Add(one, owe(one, two))                 // the stream ends inside the burst
	f.Add(append(one, two...), owe(two, one)) // lengths in the wrong order
	f.Add(AppendFrame(nil, frameAck, nil), owe(AppendFrame(nil, frameAck, nil)))
	f.Add([]byte{0, 0, 0, 0, frameBatch}, []byte{0, 5})
	f.Add([]byte{}, []byte{0, 0})
	f.Fuzz(func(t *testing.T, wire, owed []byte) {
		var lens []int
		for ; len(owed) >= 2 && len(lens) < 64; owed = owed[2:] {
			lens = append(lens, int(binary.BigEndian.Uint16(owed)))
		}
		if len(lens) == 0 {
			return // nothing owed: the pump reads nothing
		}
		lb, err := NewLoopback("unix")
		if err != nil {
			t.Fatal(err)
		}
		lb.sys = sys
		lb.oweBurst(lens...)
		conn := &burstConn{in: bytes.NewReader(wire), wrote: make(chan struct{}, 1)}
		exited := make(chan struct{})
		lb.wg.Add(1)
		go lb.serverPump(newLink(conn, "test"))
		go func() {
			lb.wg.Wait()
			close(exited)
		}()
		acked := false
		select {
		case <-conn.wrote:
			acked = true
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Fatal("the pump neither acked nor failed in 10s")
		}
		lb.mu.Lock()
		linkErr := lb.failErr
		lb.mu.Unlock()
		_ = lb.Close()
		for _, m := range task.TryRecvAll(pvm.AnySource, pvm.AnyTag) {
			m.Release()
		}
		if !acked {
			if !errors.Is(linkErr, ErrBadFrame) && !errors.Is(linkErr, pvm.ErrPeerLost) {
				t.Fatalf("link failure %v, want ErrBadFrame or pvm.ErrPeerLost", linkErr)
			}
			return
		}
		if linkErr != nil {
			t.Fatalf("the pump acked, and failed the link with %v", linkErr)
		}
		r := bytes.NewReader(conn.out.Bytes())
		for i := range lens {
			kind, body, _, _, err := ReadFrame(r, nil)
			if err != nil || kind != frameAck {
				t.Fatalf("ack %d of %d: kind %d, %v", i+1, len(lens), kind, err)
			}
			if _, err := pvm.Wrap(body).UnpackInt64(); err != nil {
				t.Fatalf("ack %d: %v", i+1, err)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d bytes past the burst's %d acks", r.Len(), len(lens))
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to both ends of the handshake:
// readHello and readWelcome must accept or return an error — typed,
// unless it is the peer's own rejection — never panic, never hang.
func FuzzHandshake(f *testing.F) {
	hello := pvm.Wrap(nil).PackString(protoMagic).PackInt32(protoVersion, roleWorker, 2, 4).PackInt64(9).Bytes()
	welcome := pvm.Wrap(nil).PackInt32(welcomeOK).PackString("").Bytes()
	f.Add(AppendFrame(nil, frameHello, hello))
	f.Add(AppendFrame(nil, frameHello, hello[:len(hello)-3]))
	f.Add(AppendFrame(nil, frameWelcome, welcome))
	f.Add(AppendFrame(nil, frameWelcome, pvm.Wrap(nil).PackInt32(welcomeRejected).PackString("no").Bytes()))
	f.Add(AppendFrame(nil, frameHello, pvm.Wrap(nil).PackString("hbspk-wirf").Bytes()))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		typed := func(err error) bool {
			for _, want := range []error{io.EOF, ErrTruncatedFrame, ErrFrameTooBig, ErrBadFrame} {
				if errors.Is(err, want) {
					return true
				}
			}
			return false
		}
		lk := newLink(&burstConn{in: bytes.NewReader(raw)}, "test")
		if _, err := lk.readHello(); err != nil && !typed(err) {
			t.Fatalf("readHello: untyped error %v", err)
		}
		lk = newLink(&burstConn{in: bytes.NewReader(raw)}, "test")
		if err := lk.readWelcome(); err != nil && !typed(err) && !strings.Contains(err.Error(), "handshake rejected") {
			t.Fatalf("readWelcome: untyped error %v", err)
		}
	})
}

// sliceOf reports whether p is a sub-slice of s. One is a slice of the
// other only if both run to the same end of one backing array, so the
// capacities give the offset p would have to start at.
func sliceOf(p, s []byte) bool {
	off := cap(s) - cap(p)
	if off < 0 || off+len(p) > len(s) {
		return false
	}
	return cap(p) == 0 || &p[:1][0] == &s[off:][:1][0]
}

// FuzzBarrierBody feeds the hub's barrier bodies arbitrary bytes: the
// BARRIER request a worker sends (unpackBarrier) and, by kind's low bit,
// the BARRIEROK or BARRIERERR reply it gets back (unpackBarrierReply).
// Whatever does not decode is ErrBadFrame, never a panic; whatever does
// re-encodes to a body that decodes to the same request, the same
// deposits, or an error of the same typed cause.
func FuzzBarrierBody(f *testing.F) {
	req := packBarrier("sync:root@1", 4, []byte("clock"))
	_, ok := packBarrierReply(map[pvm.TID][]byte{0: []byte("a"), 2: nil, 7: []byte("deposit")}, nil)
	_, canceled := packBarrierReply(nil, fmt.Errorf("barrier %q: %w", "sync:root", pvm.ErrCanceled))
	_, other := packBarrierReply(nil, errors.New("no such barrier"))
	for _, body := range [][]byte{req, packBarrier("", 0, nil), ok, canceled, other} {
		for kind := range 2 {
			f.Add(byte(kind), body)
			f.Add(byte(kind), body[:len(body)/2])
		}
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(1), pvm.Wrap(nil).PackInt32(-1).PackString("negative").Bytes())
	f.Add(byte(0), pvm.Wrap(nil).PackInt32(-1).Bytes())
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		name, count, deposit, err := unpackBarrier(body)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("BARRIER body %x: %v, want ErrBadFrame", body, err)
			}
		} else {
			n2, c2, dep2, err := unpackBarrier(packBarrier(name, count, deposit))
			if err != nil || n2 != name || c2 != count || !bytes.Equal(dep2, deposit) {
				t.Fatalf("BARRIER round trip: (%q %d %x) became (%q %d %x), %v", name, count, deposit, n2, c2, dep2, err)
			}
		}

		k := byte(frameBarrierOK)
		if kind&1 == 1 {
			k = frameBarrierErr
		}
		res, err := unpackBarrierReply(k, body)
		switch {
		case errors.Is(err, ErrBadFrame):
		case k == frameBarrierOK && err != nil:
			t.Fatalf("BARRIEROK body %x: %v, want ErrBadFrame", body, err)
		case k == frameBarrierOK:
			k2, body2 := packBarrierReply(res, nil)
			res2, err := unpackBarrierReply(k2, body2)
			if k2 != frameBarrierOK || err != nil || len(res2) != len(res) {
				t.Fatalf("BARRIEROK round trip: %d deposits became kind %d, %d deposits, %v", len(res), k2, len(res2), err)
			}
			for tid, dep := range res {
				if !bytes.Equal(res2[tid], dep) {
					t.Fatalf("BARRIEROK round trip: deposit of %d %x became %x", tid, dep, res2[tid])
				}
			}
		case err == nil:
			t.Fatalf("BARRIERERR body %x decoded without an error", body)
		default:
			if code, _ := pvm.Wrap(body).UnpackInt32(); code < 0 || int(code) >= len(barrierErrs) {
				t.Fatalf("BARRIERERR body %x: code %d decoded as %v, want ErrBadFrame", body, code, err)
			}
			k2, body2 := packBarrierReply(nil, err)
			_, err2 := unpackBarrierReply(k2, body2)
			for _, cause := range barrierErrs[1:] {
				if k2 != frameBarrierErr || errors.Is(err2, cause) != errors.Is(err, cause) || errors.Is(err2, ErrBadFrame) {
					t.Fatalf("BARRIERERR round trip: %v became kind %d, %v", err, k2, err2)
				}
			}
		}
	})
}
