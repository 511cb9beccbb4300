package wiretrans

import (
	"bytes"
	"errors"
	"io"
	"testing"

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
