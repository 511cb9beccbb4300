// Package pvm is an in-process substrate in the style of PVM, the
// Parallel Virtual Machine the paper's HBSPlib was implemented on
// (§5.1): spawned tasks with mailboxes, typed pack/unpack message
// buffers in a fixed big-endian wire format (PVM's XDR), selective
// receive by source and tag, and named group barriers. HBSPlib needs
// only point-to-point messaging, so that is all there is: one send to
// many destinations (SendBatches, with Send and SendBatch its one-buffer
// and one-destination forms), one bounded receive (RecvTimeout, which a
// zero deadline makes a non-blocking probe), and the bulk drains the
// engines read a superstep with. Tasks are goroutines and wires are
// in-memory queues unless a Transport carries them; the semantics
// visible to HBSPlib — reliable, ordered, typed point-to-point
// messaging — match the original.
package pvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire-format type codes, one per packed value, so that unpacking
// mismatches are detected instead of silently misreading (PVM's typed
// packing behaves the same way).
const (
	codeInt32 byte = iota + 1
	codeInt64
	codeFloat64
	codeString
	codeBytes
)

// ErrBufferUnderflow is returned when unpacking past the end of a
// buffer.
var ErrBufferUnderflow = errors.New("pvm: unpack past end of buffer")

// Buffer is a typed pack/unpack message buffer. Packing appends; a
// buffer received in a message unpacks from the front in packing order.
type Buffer struct {
	data     []byte
	off      int
	w        *wire // pooled backing; nil for Wrap'd and zero-value buffers
	sent     bool  // handed to a send; the fabric owns the bytes now
	borrowed bool  // PackBytesBorrowed closed the buffer: w.tail is its last field
}

// NewBuffer returns an empty send buffer backed by the wire arena's
// small class: its bytes recycle once the receiver releases the
// delivered message.
func NewBuffer() *Buffer {
	w := draw(0)
	w.hdr = Buffer{data: w.data, w: w}
	return &w.hdr
}

// adopt transfers ownership of the packed bytes to the fabric. A
// buffer is sendable exactly once: the wire record (when pooled)
// travels with the message, so a second send would alias a payload the
// receiver may already have released back to the pool. Only a transport
// takes a borrowed tail by reference; a mailbox never holds one. The
// tail is copied in before the buffer is marked sent, so that the copy
// grows into an arena backing (reserve leaves a sent buffer alone).
func (b *Buffer) adopt(byRef bool) (*wire, error) {
	if b.sent {
		return nil, errors.New("pvm: buffer already sent; pack a fresh buffer per send")
	}
	if !byRef {
		b.flatten()
	}
	b.sent = true
	if b.w != nil {
		// Packing may have grown past the pooled array; the wire record
		// follows wherever the data lives now.
		b.w.data = b.data
	}
	return b.w, nil
}

// bufferFrom wraps received bytes for unpacking.
func bufferFrom(data []byte) *Buffer { return &Buffer{data: data} }

// Wrap returns an unpacker over raw wire bytes produced by a Buffer's
// Bytes. The buffer aliases data.
func Wrap(data []byte) *Buffer { return bufferFrom(data) }

// flatten ends a borrow by copying the tail in behind the head.
func (b *Buffer) flatten() {
	if b.borrowed {
		b.reserve(len(b.w.tail))
		b.data = append(b.data, b.w.tail...)
		b.w.tail, b.borrowed = nil, false
	}
}

// reserve makes room for n more bytes ahead of a variable-length pack. A
// buffer drawn from the arena takes a backing of its new size's class
// from it when its own is too small, so that a message of any size packs
// into recycled memory; a Wrap'd buffer's bytes are its caller's, and
// grow as append grows them. A sent buffer's backing is in flight and is
// left alone: the pack that asked panics in packCode.
func (b *Buffer) reserve(n int) {
	if b.w != nil && !b.sent {
		b.data = grow(b.data, len(b.data)+n)
	}
}

// Len returns the total encoded length in bytes.
func (b *Buffer) Len() int {
	if b.borrowed {
		return len(b.data) + len(b.w.tail)
	}
	return len(b.data)
}

// Remaining returns the number of unread bytes.
func (b *Buffer) Remaining() int { return len(b.data) - b.off }

// Bytes returns the encoded wire bytes, a borrowed tail copied in. On a
// NewBuffer they are arena bytes: valid until the buffer is packed into
// again or sent.
func (b *Buffer) Bytes() []byte {
	b.flatten()
	return b.data
}

// packCode begins every pack. A pack into a sent buffer panics: its
// bytes are in flight, and growing them would hand the receiver's
// backing back to the arena.
func (b *Buffer) packCode(c byte) {
	switch {
	case b.sent:
		panic("pvm: pack into a sent buffer; pack a fresh buffer per send")
	case b.borrowed:
		panic("pvm: pack after PackBytesBorrowed; the borrowed slice is the buffer's last field")
	}
	b.data = append(b.data, c)
}

func (b *Buffer) checkCode(want byte) error {
	if b.off >= len(b.data) {
		return ErrBufferUnderflow
	}
	got := b.data[b.off]
	if got != want {
		return fmt.Errorf("pvm: unpack type mismatch: have code %d, want %d", got, want)
	}
	b.off++
	return nil
}

func (b *Buffer) take(n int) ([]byte, error) {
	// n < 0 happens when a corrupt length prefix above 2^31 wraps on a
	// 32-bit int; without the guard the slice below would panic.
	if n < 0 || b.off+n > len(b.data) {
		return nil, ErrBufferUnderflow
	}
	out := b.data[b.off : b.off+n]
	b.off += n
	return out, nil
}

// PackInt32 appends 32-bit integers.
func (b *Buffer) PackInt32(vs ...int32) *Buffer {
	for _, v := range vs {
		b.packCode(codeInt32)
		b.data = binary.BigEndian.AppendUint32(b.data, uint32(v))
	}
	return b
}

// UnpackInt32 reads the next 32-bit integer.
func (b *Buffer) UnpackInt32() (int32, error) {
	if err := b.checkCode(codeInt32); err != nil {
		return 0, err
	}
	raw, err := b.take(4)
	if err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(raw)), nil
}

// PackInt64 appends 64-bit integers.
func (b *Buffer) PackInt64(vs ...int64) *Buffer {
	for _, v := range vs {
		b.packCode(codeInt64)
		b.data = binary.BigEndian.AppendUint64(b.data, uint64(v))
	}
	return b
}

// UnpackInt64 reads the next 64-bit integer.
func (b *Buffer) UnpackInt64() (int64, error) {
	if err := b.checkCode(codeInt64); err != nil {
		return 0, err
	}
	raw, err := b.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(raw)), nil
}

// PackFloat64 appends IEEE-754 doubles.
func (b *Buffer) PackFloat64(vs ...float64) *Buffer {
	for _, v := range vs {
		b.packCode(codeFloat64)
		b.data = binary.BigEndian.AppendUint64(b.data, math.Float64bits(v))
	}
	return b
}

// UnpackFloat64 reads the next double.
func (b *Buffer) UnpackFloat64() (float64, error) {
	if err := b.checkCode(codeFloat64); err != nil {
		return 0, err
	}
	raw, err := b.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw)), nil
}

// PackString appends a length-prefixed string.
func (b *Buffer) PackString(s string) *Buffer {
	b.reserve(5 + len(s))
	b.packCode(codeString)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(len(s)))
	b.data = append(b.data, s...)
	return b
}

// UnpackString reads the next string.
func (b *Buffer) UnpackString() (string, error) {
	if err := b.checkCode(codeString); err != nil {
		return "", err
	}
	raw, err := b.take(4)
	if err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint32(raw))
	body, err := b.take(n)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// PackBytes appends a length-prefixed byte slice.
func (b *Buffer) PackBytes(p []byte) *Buffer {
	b.reserve(5 + len(p))
	b.packCode(codeBytes)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(len(p)))
	b.data = append(b.data, p...)
	return b
}

// PackBytesHeader appends the type code and length prefix of an n-byte
// slice and nothing else: the caller puts the n bytes on the wire right
// behind the buffer's own (a vectored write), so they are never copied
// into it.
func (b *Buffer) PackBytesHeader(n int) *Buffer {
	b.packCode(codeBytes)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(n))
	return b
}

// PackBytesBorrowed is PackBytes without the copy: the prefix is packed
// and p rides the pooled record by reference, as the buffer's last field
// — a pack after it panics, as does a buffer NewBuffer did not make. The
// caller leaves p alone until the buffer's send has returned (a transport
// has written p by then; in-proc, and in Bytes, it is copied in).
func (b *Buffer) PackBytesBorrowed(p []byte) *Buffer {
	if b.w == nil {
		panic("pvm: PackBytesBorrowed on a buffer with no pooled record")
	}
	b.PackBytesHeader(len(p))
	b.w.tail, b.borrowed = p, true
	return b
}

// UnpackBytes reads the next byte slice. The returned slice aliases the
// buffer; copy it if it must outlive the message.
func (b *Buffer) UnpackBytes() ([]byte, error) {
	if err := b.checkCode(codeBytes); err != nil {
		return nil, err
	}
	raw, err := b.take(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(raw))
	return b.take(n)
}

// PackInt64Slice appends a length-prefixed []int64 in one call.
func (b *Buffer) PackInt64Slice(vs []int64) *Buffer {
	b.reserve(5 + 8*len(vs))
	b.packCode(codeBytes)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(8*len(vs)))
	for _, v := range vs {
		b.data = binary.BigEndian.AppendUint64(b.data, uint64(v))
	}
	return b
}

// UnpackInt64Slice reads a slice packed by PackInt64Slice.
func (b *Buffer) UnpackInt64Slice() ([]int64, error) {
	raw, err := b.UnpackBytes()
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("pvm: int64 slice payload of %d bytes", len(raw))
	}
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// PackInt32Slice appends a length-prefixed []int32 in one call.
func (b *Buffer) PackInt32Slice(vs []int32) *Buffer {
	b.reserve(5 + 4*len(vs))
	b.packCode(codeBytes)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(4*len(vs)))
	for _, v := range vs {
		b.data = binary.BigEndian.AppendUint32(b.data, uint32(v))
	}
	return b
}

// UnpackInt32Slice reads a slice packed by PackInt32Slice.
func (b *Buffer) UnpackInt32Slice() ([]int32, error) {
	raw, err := b.UnpackBytes()
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("pvm: int32 slice payload of %d bytes", len(raw))
	}
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}
