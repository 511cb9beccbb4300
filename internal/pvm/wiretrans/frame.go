// Package wiretrans carries pvm messages over real sockets: a
// length-prefixed frame layer on top of the existing pack/unpack wire
// format, loopback unix-socket and TCP transports that plug into
// pvm.System via SetTransport, and a hub and worker link — transports
// too — that join one coordinator process and N worker OS processes
// into one run of an HBSP^k program: the paper's original PVM-daemon
// deployment, modernized. DESIGN.md §5.10 documents the architecture.
package wiretrans

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hbspk/internal/pvm"
)

// A frame is [4-byte big-endian length][kind byte][body]; the length
// counts the kind byte plus the body, never the prefix itself. Frame
// bodies reuse pvm's typed pack/unpack encoding, so the frame layer
// inherits its fuzzed robustness and its type-mismatch detection.
const (
	frameHeader = 4 // length prefix
	// MaxFrame bounds a single frame (kind + body). Anything larger is
	// rejected before allocation, so a corrupt or hostile length prefix
	// cannot balloon memory.
	MaxFrame = 16 << 20
)

// Frame kinds. BATCH is the message plane of every link: a Loopback
// post (answered by an ACK), a worker's sends on their way up, a relay's
// mailbox on its way down. The second group is the worker's barrier.
const (
	frameHello byte = iota + 1
	frameWelcome
	frameBatch
	frameAck
	frameBarrier    // worker → hub: barrier entry
	frameBarrierOK  // hub → worker: barrier completed, deposits attached
	frameBarrierErr // hub → worker: barrier failed, typed code attached
	frameBye        // worker → hub: clean departure
)

var (
	// ErrFrameTooBig is returned when a length prefix exceeds MaxFrame.
	ErrFrameTooBig = errors.New("wiretrans: frame exceeds size limit")
	// ErrTruncatedFrame is returned when the stream ends inside a frame.
	ErrTruncatedFrame = errors.New("wiretrans: truncated frame")
	// ErrBadFrame is returned for structurally invalid frames (zero
	// length, unknown kind where one is required, malformed body).
	ErrBadFrame = errors.New("wiretrans: malformed frame")
)

// AppendFrame appends one encoded frame to dst and returns the
// extended slice. Callers hand the result to a single Write so a frame
// is never split across syscalls on the send side (write coalescing:
// a Deliver batch is one frame, one write).
func AppendFrame(dst []byte, kind byte, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(body)))
	dst = append(dst, kind)
	return append(dst, body...)
}

// beginFrame appends a frame header with the length left open, for a
// body packed in place behind it; endFrame patches the length of the
// frame that starts at dst[start] and runs to the end of dst plus tail
// bytes of body that go out behind dst in the same vectored write. One
// pass, no second copy of the body.
func beginFrame(dst []byte, kind byte) []byte { return append(dst, 0, 0, 0, 0, kind) }

func endFrame(dst []byte, start, tail int) {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader+tail))
}

// readHeader reads a frame's length prefix, with io.ReadFull's errors:
// io.EOF before the first byte, io.ErrUnexpectedEOF inside the prefix. A
// buffered reader lends the four bytes (Peek, Discard); through the
// io.Reader interface the array they are read into escapes, one heap
// allocation per frame.
func readHeader(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(frameHeader)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		size := binary.BigEndian.Uint32(hdr)
		_, _ = br.Discard(frameHeader) // cannot fail: the bytes are buffered
		return size, nil
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(hdr[:]), nil
}

// frameSize reads a frame's length prefix and checks it before anything
// is allocated for the frame: a clean EOF before any header byte is
// io.EOF, an EOF inside it ErrTruncatedFrame.
func frameSize(r io.Reader) (int, error) {
	prefix, err := readHeader(r)
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	switch size := int(prefix); {
	case size == 0:
		return 0, fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	case size > MaxFrame:
		return 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, size, MaxFrame)
	default:
		return size, nil
	}
}

// ReadFrame reads one frame from r into buf (grown as needed) and
// returns the kind, the body aliasing buf, the possibly-regrown buf,
// and the total frame length on the wire. A clean EOF before any
// header byte returns io.EOF; an EOF anywhere inside a frame returns
// ErrTruncatedFrame.
func ReadFrame(r io.Reader, buf []byte) (kind byte, body, scratch []byte, n int, err error) {
	size, err := frameSize(r)
	if err != nil {
		return 0, nil, buf, 0, err
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, 0, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	return buf[0], buf[1:], buf, frameHeader + size, nil
}

// observeFrame reports one framed transfer to the process observer
// when it implements the FrameObserver extension.
func observeFrame(transport string, out bool, frameBytes int) {
	if fo, ok := pvm.InstalledObserver().(pvm.FrameObserver); ok {
		fo.TransportFrame(transport, out, frameBytes)
	}
}
