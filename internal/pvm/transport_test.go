package pvm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// frameCopy is a message's wire bytes, both pieces, copied into a frame
// of its own: what a transport that keeps a message past Deliver must
// take.
func frameCopy(m Message) Frame {
	head, tail := m.Pieces()
	f := NewFrame(m.Len())
	copy(f.Bytes()[copy(f.Bytes(), head):], tail)
	return f
}

// injectCopy injects a copy of p as one message from src to dst, the
// way a transport does: from a frame, whose own reference it drops.
func injectCopy(s *System, src, dst TID, tag int, p []byte) error {
	f := NewFrame(len(p))
	defer f.Release()
	copy(f.Bytes(), p)
	return s.Inject(src, dst, tag, f, f.Bytes())
}

// loopTransport is a minimal conforming Transport: it copies each
// message's wire bytes into a frame, releases the adopted reference, and
// re-enters the destination mailbox through Inject — the same shape a
// socket transport has, minus the socket.
type loopTransport struct {
	sys *System

	mu       sync.Mutex
	delivers int // Deliver calls, to observe batching
	messages int
	marks    []bool // per Deliver call, whether its batch carried More
	failDst  TID    // when set, Deliver to this dst fails after consuming
}

func (lt *loopTransport) Name() string             { return "loop" }
func (lt *loopTransport) Attach(sys *System) error { lt.sys = sys; return nil }
func (lt *loopTransport) Close() error             { return nil }
func (lt *loopTransport) Flush(TID) error          { return nil } // Deliver injects before it returns

func (lt *loopTransport) Deliver(dst TID, ms []Message) error {
	lt.mu.Lock()
	lt.delivers++
	lt.messages += len(ms)
	lt.marks = append(lt.marks, ms[0].More)
	for _, m := range ms {
		if m.More != ms[0].More {
			panic("pvm: one batch, two marks")
		}
	}
	fail := lt.failDst != 0 && dst == lt.failDst
	lt.mu.Unlock()
	for _, m := range ms {
		f := frameCopy(m)
		src, tag := m.Src, m.Tag
		m.Release()
		var err error
		if !fail {
			err = lt.sys.Inject(src, dst, tag, f, f.Bytes())
		}
		f.Release()
		if err != nil {
			return err
		}
	}
	if fail {
		return ErrPeerLost
	}
	return nil
}

func (lt *loopTransport) counts() (delivers, messages int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.delivers, lt.messages
}

func TestTransportRoutesSends(t *testing.T) {
	sys := NewSystem()
	lt := &loopTransport{}
	if err := sys.SetTransport(lt); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	done := make(chan error, 1)
	recv := sys.Spawn("recv", func(task *Task) error {
		for i := 0; i < 5; i++ {
			m, err := task.RecvTimeout(AnySource, 7, 5*time.Second)
			if err != nil {
				return err
			}
			v, err := m.Buffer().UnpackInt64()
			m.Release()
			if err != nil {
				return err
			}
			if v != int64(10+i) {
				t.Errorf("message %d = %d, want %d (per-sender FIFO broken)", i, v, 10+i)
			}
		}
		done <- nil
		return nil
	})
	sys.Spawn("send", func(task *Task) error {
		if err := task.Send(recv, 7, NewBuffer().PackInt64(10)); err != nil {
			return err
		}
		batch := []*Buffer{NewBuffer().PackInt64(11), NewBuffer().PackInt64(12)}
		if err := task.SendBatch(recv, 7, batch); err != nil {
			return err
		}
		return task.SendBatches(7, []Batch{{recv, []*Buffer{NewBuffer().PackInt64(13)}}, {recv, []*Buffer{NewBuffer().PackInt64(14)}}})
	})
	<-done
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	delivers, messages := lt.counts()
	if messages != 5 {
		t.Fatalf("transport carried %d messages, want 5", messages)
	}
	// Send, SendBatch (coalesced), SendBatches (one per batch): four
	// Deliver calls.
	if delivers != 4 {
		t.Fatalf("transport saw %d Deliver calls, want 4 (SendBatch must coalesce)", delivers)
	}
}

func TestSendBatchesMarksAllButTheLastBatch(t *testing.T) {
	// One call, one Deliver per non-empty batch, every one but the last
	// marked More; Send and a lone SendBatch are never marked. A
	// failed Deliver ends the call: the batches behind it are released,
	// not delivered. A spent buffer anywhere fails it before any Deliver.
	sys := NewSystem()
	lt := &loopTransport{}
	if err := sys.SetTransport(lt); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	hold := make(chan struct{})
	idle := func(*Task) error { <-hold; return nil }
	a, b, c := sys.Spawn("a", idle), sys.Spawn("b", idle), sys.Spawn("c", idle)
	lent := []byte("lent")
	num := func(vs ...int32) (bufs []*Buffer) {
		for _, v := range vs {
			bufs = append(bufs, NewBuffer().PackInt32(v).PackBytesBorrowed(lent))
		}
		return bufs
	}
	sys.Spawn("send", func(task *Task) error {
		defer close(hold)
		if err := task.SendBatches(1, []Batch{{a, num(1, 2)}, {b, nil}, {b, num(3)}, {c, num(4)}, {a, nil}}); err != nil {
			return err
		}
		if err := task.SendBatch(a, 1, num(5)); err != nil {
			return err
		}
		if err := task.Send(a, 1, NewBuffer().PackInt32(6)); err != nil {
			return err
		}
		lt.mu.Lock()
		marks := fmt.Sprint(lt.marks)
		lt.mu.Unlock()
		if want := fmt.Sprint([]bool{true, true, false, false, false}); marks != want {
			return fmt.Errorf("marks per Deliver = %s, want %s", marks, want)
		}

		spent := NewBuffer().PackInt32(8)
		if err := task.Send(a, 1, spent); err != nil {
			return err
		}
		before, _ := lt.counts()
		sound := num(9)
		rejected := []Batch{{a, sound}, {b, []*Buffer{spent}}}
		if err := task.SendBatches(1, rejected); err == nil {
			return fmt.Errorf("a post with a sent buffer was accepted")
		}
		if after, _ := lt.counts(); after != before || sound[0].w.tail != nil {
			return fmt.Errorf("the rejected post made %d Deliver calls, tail released: %v", after-before, sound[0].w.tail == nil)
		}

		lt.mu.Lock()
		lt.failDst = b
		lt.mu.Unlock()
		behind := num(12)
		err := task.SendBatches(1, []Batch{{a, num(10)}, {b, num(11)}, {c, behind}})
		if after, _ := lt.counts(); !errors.Is(err, ErrPeerLost) || after != before+2 {
			return fmt.Errorf("post with a failing Deliver = %v after %d Deliver calls, want ErrPeerLost after 2", err, after-before)
		}
		if behind[0].w.tail != nil {
			return fmt.Errorf("the batch behind the failed Deliver was not released")
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}

// postTransport is a conforming Transport of the posting kind: Deliver
// only queues the batch under its sender, and nothing is observable
// until that sender's Flush injects its queue — or fails with failWith.
type postTransport struct {
	loopTransport
	posted   map[TID][]func() error
	failWith error
}

func (pt *postTransport) Deliver(dst TID, ms []Message) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.posted == nil {
		pt.posted = make(map[TID][]func() error)
	}
	for _, m := range ms {
		f := frameCopy(m)
		src, tag := m.Src, m.Tag
		m.Release()
		pt.posted[src] = append(pt.posted[src], func() error {
			defer f.Release()
			return pt.sys.Inject(src, dst, tag, f, f.Bytes())
		})
	}
	return nil
}

func (pt *postTransport) Flush(src TID) error {
	pt.mu.Lock()
	posted := pt.posted[src]
	delete(pt.posted, src)
	pt.mu.Unlock()
	if len(posted) > 0 && pt.failWith != nil {
		return pt.failWith
	}
	for _, inject := range posted {
		if err := inject(); err != nil {
			return err
		}
	}
	return nil
}

func TestPostedSendsLandByFlushAndBarrier(t *testing.T) {
	sys := NewSystem()
	if err := sys.SetTransport(&postTransport{}); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	const n = 5
	posted, probed := make(chan struct{}), make(chan struct{})
	recv := sys.Spawn("recv", func(task *Task) error {
		<-posted
		if m, err := task.RecvTimeout(AnySource, AnyTag, 0); !errors.Is(err, ErrTimeout) {
			if err == nil {
				m.Release()
			}
			t.Errorf("receive before any Flush = %v, want ErrTimeout: posted sends observable early", err)
		}
		close(probed)
		// Round 1: the sender flushes itself, then enters the barrier.
		// Round 2: it only enters the barrier, which must flush for it.
		for round := 1; round <= 2; round++ {
			if err := task.Barrier("round", 2); err != nil {
				return err
			}
			msgs := task.TryRecvAll(AnySource, round)
			for i, m := range msgs {
				if v, _ := m.Buffer().UnpackInt64(); v != int64(i) {
					t.Errorf("round %d message %d carries %d: per-sender FIFO broken", round, i, v)
				}
				m.Release()
			}
			if len(msgs) != n {
				t.Errorf("round %d: %d messages visible at barrier exit, want %d", round, len(msgs), n)
			}
		}
		return nil
	})
	sys.Spawn("send", func(task *Task) error {
		for round := 1; round <= 2; round++ {
			for i := 0; i < n; i++ {
				if err := task.Send(recv, round, NewBuffer().PackInt64(int64(i))); err != nil {
					return err
				}
			}
			if round == 1 {
				close(posted)
				<-probed
				if err := task.Flush(); err != nil {
					return err
				}
			}
			if err := task.Barrier("round", 2); err != nil {
				return err
			}
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestPostedFailureSurfaces(t *testing.T) {
	// A failure of a posted send comes back from Flush and from a
	// barrier, and a task that simply returns hands it to Wait.
	for _, via := range []string{"flush", "barrier", "exit"} {
		t.Run(via, func(t *testing.T) {
			sys := NewSystem()
			lost := &DeliveryError{Dst: 0, Err: ErrPeerLost}
			if err := sys.SetTransport(&postTransport{failWith: lost}); err != nil {
				t.Fatalf("SetTransport: %v", err)
			}
			hold := make(chan struct{})
			recv := sys.Spawn("recv", func(*Task) error { <-hold; return nil })
			sys.Spawn("send", func(task *Task) error {
				defer close(hold)
				if err := task.Send(recv, 1, NewBuffer().PackInt32(1)); err != nil {
					return err
				}
				switch via {
				case "flush":
					return task.Flush()
				case "barrier":
					return task.Barrier("alone", 1)
				}
				return nil
			})
			err := sys.Wait()
			var de *DeliveryError
			if !errors.Is(err, ErrPeerLost) || !errors.As(err, &de) || de.Dst != recv {
				t.Fatalf("Wait = %v, want ErrPeerLost naming task %d", err, recv)
			}
		})
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestBorrowedTailEndsWithTheSend(t *testing.T) {
	// A borrowed slice travels by reference only as far as a transport's
	// Deliver: in-proc it is copied in at the send, so a mailbox message
	// is in one piece; either way the record holds no tail once released,
	// and the bytes are PackBytes's.
	lent := []byte("lent, not copied")
	want := Wrap(nil).PackInt32(7).PackBytes(lent).Bytes()
	tailed := func() *Buffer { return NewBuffer().PackInt32(7).PackBytesBorrowed(lent) }
	if b := tailed(); b.Len() != len(want) || !bytes.Equal(b.Bytes(), want) {
		t.Errorf("Len %d, Bytes %x; want %d, %x", b.Len(), b.Bytes(), len(want), want)
	}
	for _, lane := range []string{"inproc", "transport"} {
		t.Run(lane, func(t *testing.T) {
			sys := NewSystem()
			if lane == "transport" {
				if err := sys.SetTransport(&loopTransport{}); err != nil {
					t.Fatal(err)
				}
			}
			sys.Spawn("self", func(task *Task) error {
				solo, batch, held, last := tailed(), tailed(), tailed(), tailed()
				if err := task.Send(task.TID(), 1, solo); err != nil {
					return err
				}
				if err := task.SendBatch(task.TID(), 1, []*Buffer{batch}); err != nil {
					return err
				}
				// A post whose first batch is marked More: its tail is lent
				// until the unmarked one ends the call.
				self := task.TID()
				if err := task.SendBatches(1, []Batch{{self, []*Buffer{held}}, {self, []*Buffer{last}}}); err != nil {
					return err
				}
				for _, b := range []*Buffer{solo, batch, held, last} {
					if lane == "transport" && b.w.tail != nil {
						t.Error("a record the transport released still holds the sender's slice")
					}
				}
				for _, m := range task.TryRecvAll(task.TID(), 1) {
					if _, tail := m.Pieces(); tail != nil || !bytes.Equal(m.Buffer().Bytes(), want) {
						t.Errorf("mailbox message = %x + tail %x, want %x in one piece", m.Buffer().Bytes(), tail, want)
					}
					w := m.w
					m.Release()
					if w != nil && w.tail != nil {
						t.Error("released record holds a tail")
					}
				}
				return nil
			})
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBorrowedSliceIsTheLastField(t *testing.T) {
	mustPanic(t, "a pack after PackBytesBorrowed", func() { NewBuffer().PackBytesBorrowed([]byte{1}).PackInt32(2) })
	mustPanic(t, "a second borrow", func() { NewBuffer().PackBytesBorrowed(nil).PackBytesBorrowed(nil) })
	mustPanic(t, "a borrow into a buffer with no pooled record", func() { Wrap(nil).PackBytesBorrowed([]byte{1}) })
	b := NewBuffer().PackBytesBorrowed([]byte{1})
	w, err := b.adopt(true)
	if err != nil {
		t.Fatal(err)
	}
	m := Message{buf: b.data, w: w}
	mustPanic(t, "Message.Buffer on a message in two pieces", func() { m.Buffer() })
	if m.Len() != 6 {
		t.Errorf("Len = %d, want both pieces (6)", m.Len())
	}
	m.Release()
}

func TestFlushWithoutTransport(t *testing.T) {
	sys := NewSystem()
	sys.Spawn("solo", func(task *Task) error { return task.Flush() })
	if err := sys.Wait(); err != nil {
		t.Fatalf("in-proc Flush = %v, want nil", err)
	}
}

func TestInjectUnknownTask(t *testing.T) {
	sys := NewSystem()
	f := NewFrame(1)
	if err := sys.Inject(0, 42, 1, f, f.Bytes()); err == nil {
		t.Fatal("Inject to unknown task succeeded")
	}
	// A failed Inject takes no reference: the caller's is the only one.
	f.Release()
	mustPanic(t, "a release past the caller's reference", f.Release)
}

func TestTransportRegistry(t *testing.T) {
	fs := TransportFactories()
	if len(fs) == 0 || fs[0].Name != "inproc" || fs[0].New != nil {
		t.Fatalf("registry head = %+v, want the in-proc default", fs)
	}
	for _, f := range fs {
		if f.Name == "" {
			t.Fatal("registered transport with empty name")
		}
	}
}
