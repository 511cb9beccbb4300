package pvm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The wire arena: every delivered message's bytes — a packed send buffer,
// or a frame a transport read a delivery into — live in a
// reference-counted wire record drawn from it. When the last holder
// releases, the record and its backing array go back to the arena and the
// next draw of that size takes them out again, so steady-state traffic
// allocates nothing on the wire and no delivered byte lands in freshly
// zeroed memory.
//
// The arena is size-classed, so that a draw never takes a backing of the
// wrong size: class 0 keeps the small backings NewBuffer packs into, and
// class c ≥ 1 backings of at least classSize(c) bytes, four classes to a
// doubling from 256 B up to maxPooledCap. A frame of n bytes draws from
// the smallest class whose size covers n, and a backing made for a class
// is made at exactly its size, so it comes back to the class it left.

// maxPooledCap bounds the backing arrays the arena recycles; anything
// larger is left to the garbage collector so one huge message cannot
// pin arena memory forever.
const maxPooledCap = 1 << maxPooledShift

const (
	maxPooledShift = 20
	minClassShift  = 8 // class 1 holds backings of 256 B and up
	classSteps     = 4 // classes per doubling
	nclasses       = 2 + (maxPooledShift-minClassShift)*classSteps
)

var arena [nclasses]sync.Pool

// classSize is the least capacity of a backing in class c.
func classSize(c int) int {
	if c == 0 {
		return 0
	}
	base := 1 << (minClassShift + (c-1)/classSteps)
	return base + (c-1)%classSteps*(base/classSteps)
}

// classUp is the class a draw of n ≤ maxPooledCap bytes takes from: the
// smallest whose size covers n.
func classUp(n int) int {
	switch {
	case n <= 0:
		return 0
	case n <= 1<<minClassShift:
		return 1
	}
	shift := bits.Len(uint(n-1)) - 1 // 2^shift < n ≤ 2^(shift+1)
	step := 1 << shift / classSteps
	return 1 + (shift-minClassShift)*classSteps + (n-1<<shift+step-1)/step
}

// classDown is the class a released backing of capacity c ≤ maxPooledCap
// goes back to: the largest whose size it covers.
func classDown(c int) int {
	if c < 1<<minClassShift {
		return 0
	}
	shift := bits.Len(uint(c)) - 1 // 2^shift ≤ c < 2^(shift+1)
	return 1 + (shift-minClassShift)*classSteps + (c-1<<shift)/(1<<shift/classSteps)
}

// wire is a reference-counted wire payload. refs counts the Messages
// (and, before the send, the Buffer or Frame) that alias data. hdr is the
// Buffer NewBuffer hands out for the wire: header and record recycle as
// one object, so a packed message costs no allocation of its own. A sent
// Buffer is dead to its sender (a resend fails, a pack panics); the
// header is rewritten only by the NewBuffer that next draws
// the record, after every receiver has released it. tail is a slice the
// sender lent (PackBytesBorrowed): the message is data, then tail. The
// last release drops it, so a pooled record never pins a caller's slice.
type wire struct {
	data []byte
	tail []byte
	refs atomic.Int32
	hdr  Buffer
}

// draw takes a wire record holding a single reference from class c; on a
// miss the backing is made at the class's size.
func draw(c int) *wire {
	w, hit := arena[c].Get().(*wire)
	if !hit {
		w = &wire{data: make([]byte, 0, classSize(c))}
	}
	w.refs.Store(1)
	if o := observerOf(); o != nil {
		o.PoolDraw(hit)
	}
	return w
}

// release drops one reference; the last one returns the record to the
// arena. Releasing more references than were taken is a lifetime bug in
// the caller and panics rather than corrupting a recycled buffer.
func (w *wire) release() {
	if w == nil {
		return
	}
	switch n := w.refs.Add(-1); {
	case n == 0:
		w.tail = nil
		if c := cap(w.data); c <= maxPooledCap {
			w.data = w.data[:0]
			arena[classDown(c)].Put(w)
		}
	case n < 0:
		panic("pvm: wire buffer released more times than retained")
	}
}

// grow returns p, contents kept, with room for n bytes: p itself when its
// backing is large enough (or n is past what the arena pools); for a
// small n, a backing made one byte short of class 1, so that the record
// stays in class 0 and serves every small message after this one; else
// a backing drawn from n's class, p's own going back to the arena in its
// place.
func grow(p []byte, n int) []byte {
	switch {
	case cap(p) >= n || n > maxPooledCap:
		return p
	case n < classSize(1):
		return append(make([]byte, 0, classSize(1)-1), p...)
	}
	w := draw(classUp(n))
	q := append(w.data, p...)
	w.data = p
	w.release()
	return q
}

// Frame is n bytes drawn from the wire arena for a transport to read a
// delivery into, held by reference: NewFrame takes one for its caller,
// every message Inject stages from the frame takes its own, and the frame
// goes back to the arena once all of them are released.
type Frame struct{ w *wire }

// NewFrame draws a frame of n bytes, holding the caller's reference. The
// bytes are not zeroed: they are whatever the frame last carried.
func NewFrame(n int) Frame {
	var w *wire
	if n <= maxPooledCap {
		w = draw(classUp(n))
	} else {
		w = &wire{data: make([]byte, 0, n)}
		w.refs.Store(1)
	}
	w.data = w.data[:n]
	return Frame{w}
}

// Bytes returns the frame's n bytes.
func (f Frame) Bytes() []byte { return f.w.data }

// Release drops the caller's reference.
func (f Frame) Release() { f.w.release() }
