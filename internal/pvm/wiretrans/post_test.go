package wiretrans

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

// These tests hold the one-write-per-post discipline: a batch its sender
// marked More is held, the first unmarked one writes everything held in
// one vectored write — on a Loopback, shared with the senders that post
// at the same time — and nothing held outlives the call that marked it.

// attachLoopback returns a System carried by a fresh Loopback.
func attachLoopback(t *testing.T, network string) (*Loopback, *pvm.System) {
	t.Helper()
	tr, err := NewLoopback(network)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr, sys
}

// spawnIdle spawns n tasks that park until the returned stop is called.
func spawnIdle(sys *pvm.System, n int) (tids []pvm.TID, stop func()) {
	hold := make(chan struct{})
	for i := 0; i < n; i++ {
		tids = append(tids, sys.Spawn("idle", func(*pvm.Task) error { <-hold; return nil }))
	}
	return tids, func() { close(hold) }
}

// written reads the link's write counter.
func (l *link) written() int {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.writes
}

// gomaxprocs runs the rest of the test at GOMAXPROCS n.
func gomaxprocs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// everyProcs runs f as a subtest at GOMAXPROCS 1, where senders released
// together post as one group, and at 4, where they race; each lane is
// checked for leaked goroutines.
func everyProcs(t *testing.T, f func(*testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			gomaxprocs(t, procs)
			f(t)
		})
	}
}

func TestPostToManyIsOneWrite(t *testing.T) {
	// Three destinations, one call: one vectored write, three BATCH frames
	// each with a seq of its own, three acks collected by Flush.
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			tr, sys := attachLoopback(t, network)
			dsts, stop := spawnIdle(sys, 3)
			sys.Spawn("send", func(task *pvm.Task) error {
				defer stop()
				var post []pvm.Batch
				for i, dst := range dsts {
					post = append(post, pvm.Batch{Dst: dst, Bufs: []*pvm.Buffer{
						pvm.NewBuffer().PackInt32(int32(i)), pvm.NewBuffer().PackInt32(int32(10 + i))}})
				}
				before := tr.cli.written()
				if err := task.SendBatches(1, post); err != nil {
					return err
				}
				if n := tr.cli.written() - before; n != 1 {
					return fmt.Errorf("a post to three destinations made %d writes, want 1", n)
				}
				if err := task.Flush(); err != nil {
					return err
				}
				tr.mu.Lock()
				defer tr.mu.Unlock()
				if tr.seq != 3 || tr.head != len(tr.pending) {
					return fmt.Errorf("after Flush: %d batches numbered, %d un-acked; want 3 and 0",
						tr.seq, len(tr.pending)-tr.head)
				}
				return nil
			})
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLoneSendBatchIsWrittenBeforeItReturns(t *testing.T) {
	// A ping-pong of SendBatch and Recv with no Flush anywhere: it only
	// completes if an unmarked batch leaves in the call that posts it.
	// Neither player starts before both are spawned, as the engines'
	// processors do not: a batch its writer reads back is injected before
	// the call returns, so one sent to a task not yet spawned fails.
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			_, sys := attachLoopback(t, network)
			const rounds = 20
			ready := make(chan struct{})
			player := func(peer pvm.TID, serve bool) func(*pvm.Task) error {
				return func(task *pvm.Task) error {
					<-ready
					for i := 0; i < rounds; i++ {
						if serve {
							if err := task.SendBatch(peer, 1, []*pvm.Buffer{pvm.NewBuffer().PackInt32(int32(i))}); err != nil {
								return err
							}
						}
						m, err := task.RecvTimeout(peer, 1, testTimeout)
						if err != nil {
							return fmt.Errorf("round %d: %w", i, err)
						}
						m.Release()
						if !serve {
							if err := task.SendBatch(peer, 1, []*pvm.Buffer{pvm.NewBuffer().PackInt32(int32(i))}); err != nil {
								return err
							}
						}
					}
					return nil
				}
			}
			sys.Spawn("ping", player(1, true))
			sys.Spawn("pong", player(0, false))
			close(ready)
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMultiFrameWriteSurvivesChunkedConn(t *testing.T) {
	// One post, three frames, written three bytes at a time — less than a
	// frame header — and read one byte at a time: what reaches the conn is
	// exactly the three frames the one-buffer encoding builds, in call
	// order, and each lands whole at its destination.
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

	const tag = 4
	lent := bytes.Repeat([]byte("tail "), 11)
	wires := [][][]byte{
		{pvm.Wrap(nil).PackInt32(1).Bytes(), pvm.Wrap(nil).PackBytes(lent).Bytes()},
		{{}},
		{pvm.Wrap(nil).PackInt64(3).PackBytes(lent[:7]).Bytes()},
	}
	flushed := make(chan struct{})
	var dsts []pvm.TID
	for i := range wires {
		want := wires[i]
		dsts = append(dsts, sys.Spawn("recv", func(task *pvm.Task) error {
			<-flushed
			msgs := task.TryRecvAll(pvm.AnySource, tag)
			if len(msgs) != len(want) {
				return fmt.Errorf("%d messages, want %d", len(msgs), len(want))
			}
			for j, m := range msgs {
				if got := m.Buffer().Bytes(); !bytes.Equal(got, want[j]) {
					return fmt.Errorf("message %d = %x, want %x", j, got, want[j])
				}
			}
			return nil
		}))
	}
	send := sys.Spawn("send", func(task *pvm.Task) error {
		defer close(flushed)
		err := task.SendBatches(tag, []pvm.Batch{
			{Dst: dsts[0], Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt32(1), pvm.NewBuffer().PackBytesBorrowed(lent)}},
			{Dst: dsts[1], Bufs: []*pvm.Buffer{pvm.NewBuffer()}},
			{Dst: dsts[2], Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt64(3).PackBytesBorrowed(lent[:7])}},
		})
		if err != nil {
			return err
		}
		return task.Flush()
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var want []byte
	for i, ws := range wires {
		body := pvm.Wrap(nil).PackInt64(int64(i+1)).PackInt32(int32(dsts[i]), int32(len(ws)))
		for _, w := range ws {
			body.PackInt32(int32(send)).PackInt64(tag).PackBytes(w)
		}
		want = AppendFrame(want, frameBatch, body.Bytes())
	}
	if !bytes.Equal(tr.wrote.buf, want) {
		t.Fatalf("the post wrote\n%x\nthe one-buffer encoding is\n%x", tr.wrote.buf, want)
	}
}

// keepingLoopback is a Loopback that keeps the message values of every
// batch it was handed — not their bytes — to ask them, after the fact,
// what they still reference.
type keepingLoopback struct {
	*Loopback
	mu   sync.Mutex
	kept []pvm.Message
}

func (k *keepingLoopback) Deliver(dst pvm.TID, ms []pvm.Message) error {
	k.mu.Lock()
	k.kept = append(k.kept, ms...)
	k.mu.Unlock()
	return k.Loopback.Deliver(dst, ms)
}

func TestSeverInsideAPost(t *testing.T) {
	// Two senders post three frames each in one group write — the test
	// holds the write lock until both have queued — and the link drops
	// after the first frame of it. Each post went out whole, so each call
	// succeeds and lends nothing past its return — the follower's too,
	// whose post rode in the leader's write; the loss surfaces at Flush,
	// typed and naming a destination of the post. A post on the severed
	// link fails at once, naming its first destination, and every wire
	// has been released.
	everyProcs(t, func(t *testing.T) {
		lb, err := NewLoopback("unix")
		if err != nil {
			t.Fatalf("NewLoopback: %v", err)
		}
		tr := &keepingLoopback{Loopback: lb}
		sys := pvm.NewSystem()
		if err := sys.SetTransport(tr); err != nil {
			t.Fatalf("SetTransport: %v", err)
		}
		t.Cleanup(func() { _ = tr.Close() })

		dsts, stop := spawnIdle(sys, 3)
		const senders = 2
		start := make(chan struct{})
		var sent sync.WaitGroup
		sent.Add(senders)
		postErrs, flushErrs, sendErrs := make([]error, senders), make([]error, senders), make([]error, senders)
		for i := 0; i < senders; i++ {
			sys.Spawn("send", func(task *pvm.Task) error {
				defer sent.Done()
				lent := bytes.Repeat([]byte{0xA5}, 4<<10)
				var post []pvm.Batch
				for _, dst := range dsts {
					post = append(post, pvm.Batch{Dst: dst, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(lent)}})
				}
				<-start
				postErrs[i] = task.SendBatches(1, post)
				clear(lent) // the caller's again; under -race a late read of it is a report
				flushErrs[i] = task.Flush()
				sendErrs[i] = task.SendBatches(1, []pvm.Batch{
					{Dst: dsts[0], Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(lent)}},
					{Dst: dsts[1], Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(lent)}},
				})
				return nil
			})
		}
		tr.Sever(1)
		tr.cli.wmu.Lock()
		close(start)
		queued := func() int {
			tr.Loopback.mu.Lock()
			defer tr.Loopback.mu.Unlock()
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
		var de *pvm.DeliveryError
		for i := 0; i < senders; i++ {
			if err := postErrs[i]; err != nil {
				t.Errorf("sender %d: the post the sever cut = %v, want nil: it went out whole", i, err)
			}
			if err := flushErrs[i]; !errors.Is(err, pvm.ErrPeerLost) || !errors.As(err, &de) || (de.Dst != dsts[0] && de.Dst != dsts[1]) {
				t.Errorf("sender %d: Flush after the sever = %v, want pvm.ErrPeerLost naming task %d or %d", i, err, dsts[0], dsts[1])
			}
			if err := sendErrs[i]; !errors.Is(err, pvm.ErrPeerLost) || !errors.As(err, &de) || de.Dst != dsts[0] {
				t.Errorf("sender %d: a post on the severed link = %v, want pvm.ErrPeerLost naming task %d", i, err, dsts[0])
			}
		}
		if len(tr.kept) != 5*senders {
			t.Fatalf("transport saw %d messages, want %d", len(tr.kept), 5*senders)
		}
		for i, m := range tr.kept {
			if _, tail := m.Pieces(); tail != nil {
				t.Errorf("message %d was never released: it still holds the sender's slice", i)
			}
		}
		for src, s := range tr.senders {
			if len(s.held.frames) != 0 || len(s.held.msgs) != 0 {
				t.Errorf("task %d still holds %d frames", src, len(s.held.frames))
			}
		}
	})
}

func TestSeverInsideAGroupFailsEverySender(t *testing.T) {
	// Four senders post together, each to the same four receivers in an
	// order of its own, and the link drops at the third frame of the
	// write they share, inside the first post: no ack of the write went
	// out, so every sender's Flush fails, typed and naming that sender's
	// own oldest destination. Where the posts did not all share one write,
	// a post that found the link lost fails at once, naming the same. At
	// 4 B a message the socket takes the write whole and the sever cuts
	// its writer's read-back; at 512 KiB, or more where a unix socket
	// holds more than that unread, it cannot, and the sever cuts the
	// pump's read.
	everyProcs(t, func(t *testing.T) {
		for _, lane := range []struct {
			name         string
			size         int
			readByWriter bool
		}{{"4B", 4, true}, {"past-the-buffer", 512 << 10, false}} {
			t.Run(lane.name, func(t *testing.T) {
				if !lane.readByWriter {
					lane.size = pastTheBuffer(t, lane.size)
				}
				tr, sys := attachLoopback(t, "unix")
				const senders = 4
				dsts, stop := spawnIdle(sys, senders)
				start := make(chan struct{})
				var sent sync.WaitGroup
				sent.Add(senders)
				errs := make([]error, senders)
				for i := 0; i < senders; i++ {
					sys.Spawn("send", func(task *pvm.Task) error {
						defer sent.Done()
						payload := bytes.Repeat([]byte{byte(i)}, lane.size)
						var post []pvm.Batch
						for j := range dsts {
							post = append(post, pvm.Batch{Dst: dsts[(i+j)%senders], Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(payload)}})
						}
						<-start
						err := task.SendBatches(1, post)
						if err == nil {
							err = task.Flush()
						}
						errs[i] = err
						return nil
					})
				}
				tr.Sever(2)
				close(start)
				sent.Wait()
				stop()
				if err := sys.Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				for i, err := range errs {
					var de *pvm.DeliveryError
					if !errors.Is(err, pvm.ErrPeerLost) || !errors.As(err, &de) || de.Dst != dsts[i] {
						t.Errorf("sender %d: %v, want pvm.ErrPeerLost naming its oldest destination, task %d", i, err, dsts[i])
					}
				}
				if pumped, _, _ := tr.readers(); lane.readByWriter != (pumped == 0) {
					t.Errorf("the pump took %d bursts; want none exactly when the writer reads back (%v)", pumped, lane.readByWriter)
				}
			})
		}
	})
}

func TestSendersThatPostTogetherShareOneWrite(t *testing.T) {
	// Four senders released at once, as a barrier exit releases a
	// superstep's processors, each posting to the other three and
	// flushing. At GOMAXPROCS 1 the first to post yields, the other three
	// queue behind it, and the step is one vectored write on the client
	// link — it was four, one per sender. Now and then the runtime's
	// fairness check runs the yielding leader before its peers, which
	// splits a step in two, so 16 of 20 steps must be one write.
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			gomaxprocs(t, 1)
			tr, sys := attachLoopback(t, network)
			const senders, steps = 4, 20
			starts := make([]chan struct{}, steps)
			for i := range starts {
				starts[i] = make(chan struct{})
			}
			flushed := make(chan error, senders)
			for i := 0; i < senders; i++ {
				sys.Spawn("peer", func(task *pvm.Task) error {
					payload := make([]byte, 64)
					for _, start := range starts {
						<-start
						for _, m := range task.TryRecvAll(pvm.AnySource, 1) {
							m.Release()
						}
						var post []pvm.Batch
						for dst := pvm.TID(0); dst < senders; dst++ {
							if dst != task.TID() {
								post = append(post, pvm.Batch{Dst: dst, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytesBorrowed(payload)}})
							}
						}
						err := task.SendBatches(1, post)
						if err == nil {
							err = task.Flush()
						}
						flushed <- err
						if err != nil {
							return err
						}
					}
					return nil
				})
			}
			var writes []int
			single := 0
			for _, start := range starts {
				before := tr.cli.written()
				close(start)
				for i := 0; i < senders; i++ {
					if err := <-flushed; err != nil {
						t.Fatal(err)
					}
				}
				n := tr.cli.written() - before
				writes = append(writes, n)
				if n == 1 {
					single++
				}
			}
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
			if single < 16 {
				t.Fatalf("vectored writes per step %v: %d of %d steps were one write, want at least 16", writes, single, steps)
			}
		})
	}
}

func TestHeldAndUnheldToOneDestinationKeepCallOrder(t *testing.T) {
	// The first batch to the receiver is marked and waits, the last is not
	// and writes both: per-(src, dst) FIFO is the order of the calls.
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			_, sys := attachLoopback(t, network)
			other, stop := spawnIdle(sys, 1)
			recv := sys.Spawn("recv", func(task *pvm.Task) error {
				defer stop()
				for want := int32(0); want < 5; want++ {
					m, err := task.RecvTimeout(pvm.AnySource, 2, testTimeout)
					if err != nil {
						return err
					}
					got, err := m.Buffer().UnpackInt32()
					m.Release()
					if err != nil || got != want {
						return fmt.Errorf("message %d of the post = %d, %v", want, got, err)
					}
				}
				return nil
			})
			sys.Spawn("send", func(task *pvm.Task) error {
				num := func(vs ...int32) (bufs []*pvm.Buffer) {
					for _, v := range vs {
						bufs = append(bufs, pvm.NewBuffer().PackInt32(v))
					}
					return bufs
				}
				if err := task.SendBatches(2, []pvm.Batch{
					{Dst: recv, Bufs: num(0, 1)}, {Dst: other[0], Bufs: num(9)}, {Dst: recv, Bufs: num(2, 3)},
				}); err != nil {
					return err
				}
				return task.Send(recv, 2, pvm.NewBuffer().PackInt32(4))
			})
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFailedPostLeavesNothingHeld(t *testing.T) {
	// A destination that does not exist, in the middle of a post: the call
	// fails before anything is adopted or staged — nothing is held, nothing
	// arrives, and the buffers are still the caller's to send.
	testutil.CheckGoroutines(t)
	tr, sys := attachLoopback(t, "unix")
	flushed := make(chan struct{})
	var dsts []pvm.TID
	for i := 0; i < 2; i++ {
		dsts = append(dsts, sys.Spawn("recv", func(task *pvm.Task) error {
			<-flushed
			if n := len(task.TryRecvAll(pvm.AnySource, pvm.AnyTag)); n != 1 {
				return fmt.Errorf("%d messages arrived, want the one of the second post", n)
			}
			return nil
		}))
	}
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(flushed)
		a, b, c := pvm.NewBuffer().PackInt32(1), pvm.NewBuffer().PackInt32(2), pvm.NewBuffer().PackInt32(3)
		failing := []pvm.Batch{
			{Dst: dsts[0], Bufs: []*pvm.Buffer{a}}, {Dst: 99, Bufs: []*pvm.Buffer{b}}, {Dst: dsts[1], Bufs: []*pvm.Buffer{c}},
		}
		err := task.SendBatches(1, failing)
		if err == nil {
			return fmt.Errorf("a post to task 99 was accepted")
		}
		tr.mu.Lock()
		for src, s := range tr.senders {
			if len(s.held.frames) != 0 {
				err = fmt.Errorf("task %d holds %d frames after the failed post", src, len(s.held.frames))
			}
		}
		written := tr.seq
		tr.mu.Unlock()
		if written != 0 {
			return fmt.Errorf("the failed post wrote %d batches", written)
		}
		if err := task.SendBatches(1, []pvm.Batch{
			{Dst: dsts[0], Bufs: []*pvm.Buffer{a}}, {Dst: dsts[1], Bufs: []*pvm.Buffer{c}},
		}); err != nil {
			return fmt.Errorf("the same buffers, sent again: %w", err)
		}
		return task.Flush()
	})
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}

// markingLoopback is the caller that breaks the promise: every batch it
// passes on is marked More, and no unmarked one follows.
type markingLoopback struct{ *Loopback }

func (m markingLoopback) Deliver(dst pvm.TID, ms []pvm.Message) error {
	for i := range ms {
		ms[i].More = true
	}
	return m.Loopback.Deliver(dst, ms)
}

func TestFlushWritesWhatACallerLeftHeld(t *testing.T) {
	// A marked Deliver followed directly by Flush: the batch is written
	// and acked by the time Flush returns. And by task exit, which flushes.
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			lb, err := NewLoopback(network)
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			sys := pvm.NewSystem()
			if err := sys.SetTransport(markingLoopback{lb}); err != nil {
				t.Fatalf("SetTransport: %v", err)
			}
			t.Cleanup(func() { _ = lb.Close() })

			flushed := make(chan error, 1)
			recv := sys.Spawn("recv", func(task *pvm.Task) error {
				if err := <-flushed; err != nil {
					return err
				}
				if n := len(task.TryRecvAll(pvm.AnySource, 1)); n != 2 {
					return fmt.Errorf("%d messages observable after Flush, want 2", n)
				}
				m, err := task.RecvTimeout(pvm.AnySource, 2, testTimeout)
				if err != nil {
					return fmt.Errorf("the batch held at task exit: %w", err)
				}
				m.Release()
				return nil
			})
			sys.Spawn("send", func(task *pvm.Task) error {
				for i := 0; i < 2; i++ {
					if err := task.Send(recv, 1, pvm.NewBuffer().PackInt32(int32(i))); err != nil {
						return err
					}
				}
				if n := lb.cli.written(); n != 0 {
					return fmt.Errorf("%d writes before Flush: a marked batch was not held", n)
				}
				flushed <- task.Flush()
				return task.Send(recv, 2, pvm.NewBuffer().PackInt32(2))
			})
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFrameObserverSeesEachFrameOfAWrite(t *testing.T) {
	// Three frames in one write are three reports, of each frame's own
	// length. The server side is played by hand, so "test/out" is the
	// client link's writes and nothing else.
	testutil.CheckGoroutines(t)
	obs := &frameCountObserver{frames: map[string]int{}, bytes: map[string]int{}}
	pvm.SetObserver(obs)
	t.Cleanup(func() { pvm.SetObserver(nil) })

	tr := newPipeTransport(t)
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	sizes := make(chan int, 3)
	go func() {
		var scratch []byte
		for i := 0; i < 3; i++ {
			_, body, next, n, err := ReadFrame(tr.peer, scratch)
			if err != nil {
				return
			}
			scratch = next
			sizes <- n
			seq, _ := pvm.Wrap(body).UnpackInt64()
			ack := pvm.Wrap(nil).PackInt64(seq).PackInt32(ackOK).PackString("")
			tr.owe(&tr.acks, 1)
			_, _ = tr.peer.Write(AppendFrame(nil, frameAck, ack.Bytes()))
		}
	}()

	dsts, stop := spawnIdle(sys, 3)
	sys.Spawn("send", func(task *pvm.Task) error {
		defer stop()
		var post []pvm.Batch
		for i, dst := range dsts {
			post = append(post, pvm.Batch{Dst: dst, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackBytes(make([]byte, 100*i))}})
		}
		if err := task.SendBatches(1, post); err != nil {
			return err
		}
		return task.Flush()
	})
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
	wantBytes := <-sizes + <-sizes + <-sizes
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.frames["test/out"] != 3 || obs.bytes["test/out"] != wantBytes {
		t.Fatalf("observer saw %d frames, %d bytes written; the wire carried 3 frames, %d bytes",
			obs.frames["test/out"], obs.bytes["test/out"], wantBytes)
	}
}

// markingWorker is markingLoopback for a worker's uplink.
type markingWorker struct{ *Worker }

func (m markingWorker) Deliver(dst pvm.TID, ms []pvm.Message) error {
	for i := range ms {
		ms[i].More = true
	}
	return m.Worker.Deliver(dst, ms)
}

func TestWorkerPostGoesUpInOneWrite(t *testing.T) {
	// A worker's post of two batches is one write on its link, and
	// batches it was left holding go up with its Flush — before the
	// BARRIER frame, since a barrier entry flushes first. Either way the
	// hub reads them in call order.
	for _, held := range []bool{false, true} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			h, hsys := startHub(t, "unix", 2, func(task *pvm.Task) error {
				if err := task.BarrierTimeout("sent", 2, testTimeout); err != nil {
					return err
				}
				msgs := task.TryRecvAll(1, 1)
				if len(msgs) != 2 {
					return fmt.Errorf("%d messages at the hub when the barrier opened, want 2", len(msgs))
				}
				for want, m := range msgs {
					if got, err := m.Buffer().UnpackInt32(); err != nil || int(got) != want {
						return fmt.Errorf("message %d = %d, %v", want, got, err)
					}
				}
				return nil
			})
			w, err := DialWorker(h.network, h.Addr(), 1, 2, 1, testTimeout)
			if err != nil {
				t.Fatalf("DialWorker: %v", err)
			}
			var tr pvm.Transport = w
			if held {
				tr = markingWorker{w}
			}
			wsys := pvm.NewSystem()
			if err := wsys.SetTransport(tr); err != nil {
				t.Fatalf("SetTransport: %v", err)
			}
			wsys.Spawn("elsewhere", w.Proxy(0))
			wsys.Spawn("worker", func(task *pvm.Task) error {
				before := w.lk.written()
				if err := task.SendBatches(1, []pvm.Batch{
					{Dst: 0, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt32(0)}},
					{Dst: 0, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt32(1)}},
				}); err != nil {
					return err
				}
				if n, want := w.lk.written()-before, map[bool]int{false: 1, true: 0}[held]; n != want {
					return fmt.Errorf("the post made %d writes, want %d", n, want)
				}
				if err := task.Flush(); err != nil {
					return err
				}
				if n := w.lk.written() - before; n != 1 {
					return fmt.Errorf("post and Flush made %d writes, want 1", n)
				}
				return task.BarrierTimeout("sent", 2, testTimeout)
			})
			if err := wsys.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := hsys.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
