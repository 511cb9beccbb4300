package pvm

import (
	"cmp"
	"slices"
)

// The indexed mailbox. Senders stage under sendMu; the receiving side
// drains the staging into per-(src, tag) queues under recvMu, so the
// dominant exact-match receive is a map lookup plus a head pop instead
// of a linear scan, and a burst of senders never serializes against
// the receiver's matching. Wildcard receives fall back to picking the
// smallest arrival stamp across the matching queue heads.

// mkey indexes one queue of the mailbox.
type mkey struct {
	src TID
	tag int
}

// matches reports whether a receive for (src, tag), either of which may
// be a wildcard, takes messages of this key.
func (k mkey) matches(src TID, tag int) bool {
	return (src == AnySource || k.src == src) && (tag == AnyTag || k.tag == tag)
}

// msgq is one FIFO of the index: a slice consumed from head so pops
// are O(1). Vacated slots are zeroed immediately — a popped Message
// (and its payload) must not stay reachable from the mailbox.
type msgq struct {
	items []Message
	head  int
}

func (q *msgq) push(m Message) { q.items = append(q.items, m) }

func (q *msgq) pop() Message {
	m := q.items[q.head]
	q.items[q.head] = Message{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m
}

func (q *msgq) empty() bool     { return q.head == len(q.items) }
func (q *msgq) len() int        { return len(q.items) - q.head }
func (q *msgq) peekSeq() uint64 { return q.items[q.head].seq }

// maxFreeQueues bounds the per-task recycled queue records. The HBSP
// engines encode the superstep generation in the tag, so keys churn;
// recycling keeps that from allocating a fresh queue every superstep.
const maxFreeQueues = 64

// deliverOne stages a message from a sender. Only sendMu is taken, so
// concurrent senders contend with each other and a parked receiver,
// never with an actively matching one.
func (t *Task) deliverOne(m Message) error {
	t.sendMu.Lock()
	if t.halted {
		t.sendMu.Unlock()
		return ErrHalted
	}
	t.seq++
	m.seq = t.seq
	t.staged = append(t.staged, m)
	depth := len(t.staged)
	t.cond.Broadcast()
	t.sendMu.Unlock()
	if o := observerOf(); o != nil {
		o.MailboxDepth(depth)
	}
	return nil
}

// deliverBatch adopts a whole outbox from src into the staging slice
// under one lock acquisition. A buffer that cannot be adopted fails the
// batch: what was staged of it is taken back.
func (t *Task) deliverBatch(src TID, tag int, bufs []*Buffer) error {
	t.sendMu.Lock()
	if t.halted {
		t.sendMu.Unlock()
		return ErrHalted
	}
	before := len(t.staged)
	for _, buf := range bufs {
		w, err := buf.adopt(false)
		if err != nil {
			clear(t.staged[before:])
			t.staged = t.staged[:before]
			t.sendMu.Unlock()
			return err
		}
		t.seq++
		t.staged = append(t.staged, Message{Src: src, Tag: tag, buf: buf.data, w: w, seq: t.seq})
	}
	depth := len(t.staged)
	t.cond.Broadcast()
	t.sendMu.Unlock()
	if o := observerOf(); o != nil {
		o.MailboxDepth(depth)
	}
	return nil
}

// recvOnce drains the staging and attempts one indexed pop, returning
// the staging version observed for park/retry decisions.
func (t *Task) recvOnce(src TID, tag int) (Message, uint64, bool) {
	t.recvMu.Lock()
	ver := t.drainLocked()
	m, ok := t.popLocked(src, tag)
	t.recvMu.Unlock()
	return m, ver, ok
}

// takeStaged takes the staging slice from the senders, leaving them the
// spare backing, and returns it with the staging version (t.seq) it
// covers. The caller empties it, every slot zeroed, and keeps it as the
// next spare. Caller holds recvMu.
func (t *Task) takeStaged() ([]Message, uint64) {
	t.sendMu.Lock()
	staged := t.staged
	t.staged = t.spare[:0]
	ver := t.seq
	t.sendMu.Unlock()
	return staged, ver
}

// indexLocked files one message under its (src, tag). Caller holds recvMu.
func (t *Task) indexLocked(m Message) {
	k := mkey{src: m.Src, tag: m.Tag}
	q := t.queues[k]
	if q == nil {
		q = t.getq()
		t.queues[k] = q
	}
	q.push(m)
}

// fileLocked moves a slice of messages, oldest first, into the index and
// zeroes it: the index owns the references now. Caller holds recvMu.
func (t *Task) fileLocked(ms []Message) {
	for i := range ms {
		t.indexLocked(ms[i])
		ms[i] = Message{}
	}
}

// drainLocked moves what a bulk drain walked past, then the staged
// messages, into the indexed queues and returns the staging version they
// cover. Caller holds recvMu.
func (t *Task) drainLocked() uint64 {
	t.fileLocked(t.passed)
	t.passed = t.passed[:0]
	staged, ver := t.takeStaged()
	t.fileLocked(staged)
	t.spare = staged[:0]
	return ver
}

// findLocked locates the queue holding the oldest message matching
// (src, tag); queues in the index are never empty. Caller holds recvMu
// and has drained.
func (t *Task) findLocked(src TID, tag int) (mkey, *msgq) {
	if src != AnySource && tag != AnyTag {
		k := mkey{src: src, tag: tag}
		return k, t.queues[k]
	}
	var (
		bestK mkey
		best  *msgq
	)
	for k, q := range t.queues {
		if k.matches(src, tag) && (best == nil || q.peekSeq() < best.peekSeq()) {
			bestK, best = k, q
		}
	}
	return bestK, best
}

// popLocked removes and returns the oldest matching message. Caller
// holds recvMu and has drained.
func (t *Task) popLocked(src TID, tag int) (Message, bool) {
	k, q := t.findLocked(src, tag)
	if q == nil {
		return Message{}, false
	}
	m := q.pop()
	if q.empty() {
		t.dropq(k, q)
	}
	return m, true
}

func (t *Task) getq() *msgq {
	if n := len(t.qfree); n > 0 {
		q := t.qfree[n-1]
		t.qfree = t.qfree[:n-1]
		return q
	}
	return new(msgq)
}

// dropq removes an emptied queue from the index — tags churn per
// superstep, so empty queues must not accumulate — and recycles the
// record.
func (t *Task) dropq(k mkey, q *msgq) {
	delete(t.queues, k)
	if len(t.qfree) < maxFreeQueues {
		t.qfree = append(t.qfree, q)
	}
}

// takeq appends a whole queue of the index to dst and drops it.
func (t *Task) takeq(dst []Message, k mkey, q *msgq) []Message {
	dst = append(dst, q.items[q.head:]...)
	clear(q.items[q.head:])
	q.items, q.head = q.items[:0], 0
	t.dropq(k, q)
	return dst
}

// TryRecvAll drains every queued message matching (src, tag) in
// arrival order, without blocking, under one lock acquisition. The
// exact-match case hands the queue's backing to the caller in place; a
// wildcard match is AppendRecvAll into a fresh slice.
func (t *Task) TryRecvAll(src TID, tag int) []Message {
	if src == AnySource || tag == AnyTag {
		return t.AppendRecvAll(nil, src, tag)
	}
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	t.drainLocked()
	k := mkey{src: src, tag: tag}
	q := t.queues[k]
	if q == nil {
		return nil
	}
	out := q.items[q.head:]
	delete(t.queues, k)
	// The backing transfers to the caller; recycle only the record.
	*q = msgq{}
	if len(t.qfree) < maxFreeQueues {
		t.qfree = append(t.qfree, q)
	}
	return out
}

// AppendRecvAll is TryRecvAll into the caller's slice: the matching
// messages, in arrival order, are appended to dst and the extended slice
// returned, so a caller that drains once per superstep (the HBSP engine)
// reuses one backing. The caller owns dst and the messages in it, and
// should clear what it has consumed: the backing keeps bytes reachable.
//
// It does not index what it hands out, nor, at first, what it does not.
// What the index already holds was staged before anything else, so the
// matches there come first — and only they can need sorting, when they
// lie in several queues. Then come the messages the previous call walked
// past, and then the staging slice, both in arrival order: a match goes
// straight to dst; a staged message that does not match (for the engine,
// a later superstep's early traffic) is only set aside for the next call,
// which is usually the one that wants it, and is filed when a second call
// walks past it too — so no message is looked at more than twice, and a
// superstep's own traffic never touches the map.
func (t *Task) AppendRecvAll(dst []Message, src TID, tag int) []Message {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	from, queues := len(dst), 0
	if src != AnySource && tag != AnyTag {
		k := mkey{src: src, tag: tag}
		if q := t.queues[k]; q != nil {
			dst = t.takeq(dst, k, q)
		}
	} else {
		for k, q := range t.queues {
			if k.matches(src, tag) {
				dst = t.takeq(dst, k, q)
				queues++
			}
		}
	}
	if queues > 1 {
		slices.SortFunc(dst[from:], func(a, b Message) int { return cmp.Compare(a.seq, b.seq) })
	}
	for i, m := range t.passed {
		if (mkey{m.Src, m.Tag}).matches(src, tag) {
			dst = append(dst, m)
		} else {
			t.indexLocked(m)
		}
		t.passed[i] = Message{}
	}
	t.passed = t.passed[:0]
	staged, _ := t.takeStaged()
	for i, m := range staged {
		if (mkey{m.Src, m.Tag}).matches(src, tag) {
			dst = append(dst, m)
		} else {
			t.passed = append(t.passed, m)
		}
		staged[i] = Message{}
	}
	t.spare = staged[:0]
	return dst
}
