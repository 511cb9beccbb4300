// Package bufown is the golden fixture for the linear-ownership
// checker: a stub of the pvm mailbox API plus seeded lifetime bugs
// (leaks on early error returns, double releases, uses after release,
// path-sensitive re-sends, release-in-flight, panic leaks) and the
// audited-clean idioms (err-guarded acquisition, deferred release,
// ownership hand-offs to helpers and callers).
package bufown

import "time"

type TID int

type Buffer struct{ data []byte }

func NewBuffer() *Buffer                        { return &Buffer{} }
func (b *Buffer) PackInt32(vs ...int32) *Buffer { return b }
func (b *Buffer) UnpackInt32() (int32, error)   { return 0, nil }
func (b *Buffer) UnpackBytes() ([]byte, error)  { return nil, nil }

type Message struct {
	Src TID
	Tag int
}

func (m Message) Release()        {}
func (m Message) Buffer() *Buffer { return &Buffer{} }
func (m Message) Len() int        { return 0 }

type Task struct{}

func (t *Task) Recv(src TID, tag int) (Message, error) { return Message{}, nil }
func (t *Task) RecvTimeout(src TID, tag int, d time.Duration) (Message, error) {
	return Message{}, nil
}
func (t *Task) TryRecvAll(src TID, tag int) []Message                   { return nil }
func (t *Task) AppendRecvAll(dst []Message, src TID, tag int) []Message { return dst }
func (t *Task) Send(dst TID, tag int, buf *Buffer) error                { return nil }

// --- violations ---

// The classic leak: an early error return between acquisition and
// release drops the wire reference.
func leakOnErrorReturn(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	b := m.Buffer()
	if _, err := b.UnpackInt32(); err != nil {
		return err // want `not released on this return path`
	}
	m.Release()
	return nil
}

// Never released at all: the reference leaks at the final return.
func neverReleased(t *Task) int {
	m, err := t.RecvTimeout(1, 0, 0)
	if err != nil {
		return 0
	}
	return m.Len() // want `not released on this return path`
}

// Same leak without a return: reported where the reference was taken,
// since nothing past the end of the scope can release it.
func neverReleasedFallsOff(t *Task) {
	m, err := t.RecvTimeout(1, 0, 0) // want `not released on every path`
	if err != nil {
		return
	}
	observe(m.Len())
}

func observe(int) {}

func doubleRelease(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	m.Release()
	m.Release() // want `double release`
	return nil
}

// Unpacking through an alias of a released message reads bytes the pool
// may already have recycled into another message.
func useAfterRelease(t *Task) (int32, error) {
	m, err := t.Recv(1, 0)
	if err != nil {
		return 0, err
	}
	b := m.Buffer()
	m.Release()
	return b.UnpackInt32() // want `use of buffer "b" after message "m" was released`
}

// Path-sensitive re-send: one arm already transferred the buffer, so
// the unconditional send doubles it on that path, and the finding says
// "some paths" where a definite resend names the first send's line.
func resendOnSomePaths(t *Task, urgent bool) error {
	buf := NewBuffer().PackInt32(7)
	if urgent {
		if err := t.Send(2, 1, buf); err != nil {
			return err
		}
	}
	return t.Send(3, 1, buf) // want `may already have been sent on some paths`
}

func resendDefinite(t *Task) {
	buf := NewBuffer().PackInt32(1)
	_ = t.Send(2, 1, buf)
	_ = t.Send(3, 1, buf) // want `sent again: ownership transferred`
}

// Forwarding a received message's bytes hands the pooled record to the
// fabric; releasing before delivery recycles bytes still on the wire.
func releaseInFlight(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	fwd := m.Buffer()
	if err := t.Send(2, 1, fwd); err != nil {
		return err
	}
	m.Release() // want `released while its bytes are in flight`
	return nil
}

// A panic between acquisition and release leaks unless the release is
// deferred.
func leakOnPanic(t *Task, n int) {
	m, err := t.RecvTimeout(1, 0, 0)
	if err != nil {
		return
	}
	if n < 0 {
		panic("negative fan-in count") // want `leaks if this panic unwinds`
	}
	m.Release()
}

// An explicit Release with a deferred one pending drops two references
// for one acquisition.
func doubleWithDefer(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer m.Release()
	if m.Len() == 0 {
		return nil
	}
	m.Release() // want `a deferred Release is already pending`
	return nil
}

// The TryRecvAll drain-loop bug: an early return mid-iteration leaks
// the current message (and strands the rest of the batch).
func drainLeaky(t *Task) error {
	for _, m := range t.TryRecvAll(1, 0) {
		b := m.Buffer()
		if _, err := b.UnpackInt32(); err != nil {
			return err // want `not released on this return path`
		}
		m.Release()
	}
	return nil
}

// The engine's drain into a reused slice: an AppendRecvAll result
// acquires its elements when ranged, exactly like a TryRecvAll one.
func drainAppendLeaky(t *Task, scratch []Message) error {
	scratch = t.AppendRecvAll(scratch[:0], 1, 0)
	for _, m := range scratch {
		if _, err := m.Buffer().UnpackInt32(); err != nil {
			return err // want `not released on this return path`
		}
		m.Release()
	}
	return nil
}

// --- audited-clean idioms ---

// The guarded acquisition: on the error arm nothing was delivered, so
// returning without Release is correct.
func errGuardClean(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer m.Release()
	if _, err := m.Buffer().UnpackInt32(); err != nil {
		return err
	}
	return nil
}

// A closure that releases on the way out is as good as a direct defer.
func closureDeferClean(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer func() { m.Release() }()
	return nil
}

// Returning the message transfers the obligation to the caller.
func transferToCaller(t *Task) (Message, error) {
	m, err := t.Recv(1, 0)
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// Handing the message to a helper transfers the obligation to it.
func handedToHelper(t *Task) {
	m, err := t.RecvTimeout(1, 0, 0)
	if err != nil {
		return
	}
	consume(m)
}

func consume(m Message) { m.Release() }

// Release on every arm of a branch keeps the reference balanced.
func releasedOnBothArms(t *Task, keep bool) []byte {
	m, err := t.RecvTimeout(1, 0, 0)
	if err != nil {
		return nil
	}
	var out []byte
	if keep {
		raw, _ := m.Buffer().UnpackBytes()
		out = append(out, raw...)
		m.Release()
	} else {
		m.Release()
	}
	return out
}

// A read-only sizing pass before the owning drain: only the last loop
// over the batch carries the release obligation.
func drainSized(t *Task) int {
	msgs := t.TryRecvAll(1, 0)
	total := 0
	for _, m := range msgs {
		total += m.Len()
	}
	for _, m := range msgs {
		m.Release()
	}
	return total
}

// The drain loop done right: release per iteration, and on an error
// hand the remaining batch (current element included) to a helper that
// owns the cleanup.
func drainForward(t *Task, rest func([]Message, error) error) error {
	msgs := t.TryRecvAll(1, 0)
	for i, m := range msgs {
		b := m.Buffer()
		if _, err := b.UnpackInt32(); err != nil {
			return rest(msgs[i:], err)
		}
		m.Release()
	}
	return nil
}
