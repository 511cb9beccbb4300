package pvm

import (
	"sync"
	"sync/atomic"
)

// The fast path of the fabric: Send hands the sender's packed bytes to
// the receiver without copying. Each in-flight payload is owned by a
// reference-counted wire record. When its holder releases, the backing
// array parks in a sync.Pool and the next NewBuffer draws it back out,
// so steady-state traffic allocates nothing on the wire.

// maxPooledCap bounds the backing arrays the arena recycles; anything
// larger is left to the garbage collector so one huge message cannot
// pin arena memory forever.
const maxPooledCap = 1 << 20

// wire is a reference-counted wire payload. refs counts the Messages
// (and, before the send, the Buffer) that alias data. hdr is the Buffer
// NewBuffer hands out for the wire: header and record recycle as one
// object, so a packed message costs no allocation of its own. A sent
// Buffer is dead to its sender (the bufown analyzer holds programs to
// that); the header is rewritten only by the NewBuffer that next draws
// the record, after every receiver has released it. tail is a slice the
// sender lent (PackBytesBorrowed): the message is data, then tail. The
// last release drops it, so a pooled record never pins a caller's slice.
type wire struct {
	data []byte
	tail []byte
	refs atomic.Int32
	hdr  Buffer
}

var wirePool = sync.Pool{New: func() any { return new(wire) }}

// newWire draws a recycled wire record holding a single reference.
func newWire() *wire {
	w := wirePool.Get().(*wire)
	w.refs.Store(1)
	if o := observerOf(); o != nil {
		// A recycled backing still has capacity; a fresh record (or one
		// whose oversized backing was left to the GC) does not.
		o.PoolDraw(cap(w.data) > 0)
	}
	return w
}

// release drops one reference; the last one returns the backing to the
// pool. Releasing more references than were taken is a lifetime bug in
// the caller and panics rather than corrupting a recycled buffer.
func (w *wire) release() {
	if w == nil {
		return
	}
	switch n := w.refs.Add(-1); {
	case n == 0:
		w.tail = nil
		if cap(w.data) <= maxPooledCap {
			w.data = w.data[:0]
			wirePool.Put(w)
		}
	case n < 0:
		panic("pvm: wire buffer released more times than retained")
	}
}
