package wiretrans

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

func TestLoopbackRoundTrip(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			tr, err := NewLoopback(network)
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			sys := pvm.NewSystem()
			if err := sys.SetTransport(tr); err != nil {
				t.Fatalf("SetTransport: %v", err)
			}
			t.Cleanup(func() { _ = tr.Close() })

			const msgs = 32
			recv := sys.Spawn("recv", func(task *pvm.Task) error {
				for i := 0; i < msgs; i++ {
					m, err := task.RecvTimeout(pvm.AnySource, 3, 10*time.Second)
					if err != nil {
						return err
					}
					v, err := m.Buffer().UnpackInt64()
					m.Release()
					if err != nil {
						return err
					}
					if v != int64(i) {
						return fmt.Errorf("message %d carried %d: order or content lost on the wire", i, v)
					}
				}
				return nil
			})
			sys.Spawn("send", func(task *pvm.Task) error {
				// Mix Send, SendBatch and a two-batch SendBatches (its first
				// batch marked More) so all three routes cross the socket.
				for i := 0; i < msgs; {
					switch {
					case i%8 == 5 && i+2 <= msgs:
						batches := []pvm.Batch{
							{Dst: recv, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt64(int64(i))}},
							{Dst: recv, Bufs: []*pvm.Buffer{pvm.NewBuffer().PackInt64(int64(i + 1))}},
						}
						if err := task.SendBatches(3, batches); err != nil {
							return err
						}
						i += 2
					case i%8 == 2 && i+2 <= msgs:
						batch := []*pvm.Buffer{
							pvm.NewBuffer().PackInt64(int64(i)),
							pvm.NewBuffer().PackInt64(int64(i + 1)),
						}
						if err := task.SendBatch(recv, 3, batch); err != nil {
							return err
						}
						i += 2
					default:
						if err := task.Send(recv, 3, pvm.NewBuffer().PackInt64(int64(i))); err != nil {
							return err
						}
						i++
					}
				}
				return nil
			})
			if err := sys.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestLoopbackBarrierDeliveryContract(t *testing.T) {
	// The engines' core assumption: a Send that returned before a
	// barrier entry is receivable immediately after the barrier exits,
	// with no extra wait. A non-blocking receive (RecvTimeout with no
	// deadline) right after the barrier must therefore see the message.
	testutil.CheckGoroutines(t)
	tr, err := NewLoopback("unix")
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })

	const rounds = 50
	recv := sys.Spawn("recv", func(task *pvm.Task) error {
		for r := 0; r < rounds; r++ {
			if err := task.Barrier(fmt.Sprintf("b#%d", r), 2); err != nil {
				return err
			}
			m, err := task.RecvTimeout(pvm.AnySource, r, 0)
			if err != nil {
				return fmt.Errorf("round %d: message not visible right after the barrier — Deliver returned before injection: %w", r, err)
			}
			m.Release()
		}
		return nil
	})
	if recv != 0 {
		t.Fatalf("recv spawned as %d", recv)
	}
	sys.Spawn("send", func(task *pvm.Task) error {
		for r := 0; r < rounds; r++ {
			if err := task.Send(recv, r, pvm.NewBuffer().PackInt32(int32(r))); err != nil {
				return err
			}
			if err := task.Barrier(fmt.Sprintf("b#%d", r), 2); err != nil {
				return err
			}
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestLoopbackSeverFailsDelivers(t *testing.T) {
	// A link severed under a posted batch fails it at Flush: typed,
	// naming its destination, and promptly (no ack-timeout stall). Later
	// sends fail at once.
	testutil.CheckGoroutines(t)
	tr, err := NewLoopback("tcp")
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })

	hold := make(chan struct{})
	idle := func(*pvm.Task) error { <-hold; return nil }
	first, second := sys.Spawn("first", idle), sys.Spawn("second", idle)
	var flushErr, sendErr error
	var took time.Duration
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(hold)
		if err := task.Send(first, 1, pvm.NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		if err := task.Flush(); err != nil {
			return err
		}
		tr.Sever(0)
		if err := task.Send(second, 1, pvm.NewBuffer().PackInt32(2)); err != nil {
			return err
		}
		start := time.Now()
		flushErr = task.Flush()
		took = time.Since(start)
		sendErr = task.Send(first, 1, pvm.NewBuffer().PackInt32(3))
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var de *pvm.DeliveryError
	if !errors.Is(flushErr, pvm.ErrPeerLost) || !errors.As(flushErr, &de) || de.Dst != second {
		t.Fatalf("Flush over severed link = %v, want pvm.ErrPeerLost naming task %d", flushErr, second)
	}
	if took > tr.AckTimeout/2 {
		t.Fatalf("Flush took %v to notice the severed link", took)
	}
	if !errors.Is(sendErr, pvm.ErrPeerLost) {
		t.Fatalf("Send over severed link = %v, want pvm.ErrPeerLost", sendErr)
	}
}

func TestLoopbackPostFlushFIFO(t *testing.T) {
	// The post/flush contract: once a sender's Flush has returned, all
	// it posted is receivable without blocking, in the order it posted.
	// On the mixed lane every other post carries 512 KiB, or more where a
	// unix socket holds more than that unread, which the socket cannot
	// take whole: bursts alternate between being read back by their
	// writer, offered in part and pumped, and both readers must have run.
	for _, lane := range []struct {
		name, network string
		posts, big    int
	}{
		{"unix", "unix", 40, 0},
		{"tcp", "tcp", 40, 0},
		{"mixed", "unix", 12, 512 << 10},
	} {
		t.Run(lane.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			tr, err := NewLoopback(lane.network)
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			sys := pvm.NewSystem()
			if err := sys.SetTransport(tr); err != nil {
				t.Fatalf("SetTransport: %v", err)
			}
			t.Cleanup(func() { _ = tr.Close() })

			const senders = 3
			flushed := make(chan struct{}, senders)
			recv := sys.Spawn("recv", func(task *pvm.Task) error {
				for i := 0; i < senders; i++ {
					<-flushed
				}
				next := make(map[pvm.TID]int64)
				msgs := task.TryRecvAll(pvm.AnySource, 9)
				for _, m := range msgs {
					v, err := m.Buffer().UnpackInt64()
					m.Release()
					if err != nil {
						return err
					}
					if v != next[m.Src] {
						return fmt.Errorf("from task %d: got post %d, want %d", m.Src, v, next[m.Src])
					}
					next[m.Src]++
				}
				if len(msgs) != senders*lane.posts {
					return fmt.Errorf("%d messages visible after every Flush, want %d", len(msgs), senders*lane.posts)
				}
				return nil
			})
			if lane.big > 0 {
				lane.big = pastTheBuffer(t, lane.big)
			}
			big := make([]byte, lane.big)
			small := big[:min(64, lane.big)]
			for i := 0; i < senders; i++ {
				sys.Spawn("send", func(task *pvm.Task) error {
					for i := int64(0); i < int64(lane.posts); i += 2 {
						if err := task.Send(recv, 9, pvm.NewBuffer().PackInt64(i).PackBytes(small)); err != nil {
							return err
						}
						if err := task.SendBatch(recv, 9, []*pvm.Buffer{pvm.NewBuffer().PackInt64(i + 1).PackBytes(big)}); err != nil {
							return err
						}
					}
					err := task.Flush()
					flushed <- struct{}{}
					return err
				})
			}
			if err := sys.Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if pumped, _, readBack := tr.readers(); lane.big > 0 && (pumped == 0 || readBack == 0) {
				t.Fatalf("the pump took %d bursts and writers read back %d; want both paths taken", pumped, readBack)
			}
		})
	}
}

// pipeTransport is a Loopback whose client link is one end of an
// in-memory pipe and whose server side the test plays by hand on the
// other end, to produce what a healthy pump never does. Playing the pump,
// the test owes the ack reader each ack before it writes it
// (owe(&tr.acks, n)): the reader reads nothing it is not owed.
type pipeTransport struct {
	*Loopback
	peer net.Conn
}

func newPipeTransport(t *testing.T) *pipeTransport {
	lb, err := NewLoopback("unix")
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	return &pipeTransport{Loopback: lb}
}

func (p *pipeTransport) Attach(sys *pvm.System) error {
	a, b := net.Pipe()
	p.sys, p.cli, p.peer = sys, newLink(a, "test"), b
	p.wg.Add(1)
	go p.ackReader()
	return nil
}

func TestFlushHonoursAckTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr := newPipeTransport(t)
	tr.AckTimeout = 50 * time.Millisecond
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	go func() { _, _ = io.Copy(io.Discard, tr.peer) }() // a peer that reads and never acks

	hold := make(chan struct{})
	recv := sys.Spawn("recv", func(*pvm.Task) error { <-hold; return nil })
	var flushErr error
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(hold)
		if err := task.Send(recv, 1, pvm.NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		flushErr = task.Flush()
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err) // the failure was reported once, to Flush
	}
	var de *pvm.DeliveryError
	if !errors.Is(flushErr, pvm.ErrTimeout) || !errors.As(flushErr, &de) || de.Dst != recv {
		t.Fatalf("Flush with no ack = %v, want pvm.ErrTimeout naming task %d", flushErr, recv)
	}
}

func TestLinkLossNamesOldestUnackedDestination(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr := newPipeTransport(t)
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	go func() {
		// Take both batches off the wire, owe both acks, send neither and
		// hang up: the ack reader goes to read them and finds the link gone.
		var scratch []byte
		for i := 0; i < 2; i++ {
			_, _, scratch, _, _ = ReadFrame(tr.peer, scratch)
		}
		tr.owe(&tr.acks, 2)
		_ = tr.peer.Close()
	}()

	hold := make(chan struct{})
	idle := func(*pvm.Task) error { <-hold; return nil }
	first, second := sys.Spawn("first", idle), sys.Spawn("second", idle)
	var flushErr error
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(hold)
		for _, dst := range []pvm.TID{second, first} {
			if err := task.Send(dst, 1, pvm.NewBuffer().PackInt32(1)); err != nil {
				return err
			}
		}
		flushErr = task.Flush()
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var de *pvm.DeliveryError
	if !errors.Is(flushErr, pvm.ErrPeerLost) || !errors.As(flushErr, &de) || de.Dst != second {
		t.Fatalf("Flush over the dropped link = %v, want pvm.ErrPeerLost naming task %d", flushErr, second)
	}
}

func TestOutOfOrderAckFailsLink(t *testing.T) {
	testutil.CheckGoroutines(t)
	tr := newPipeTransport(t)
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	go func() {
		// Ack a batch that is not the oldest pending one.
		_, body, _, _, err := ReadFrame(tr.peer, nil)
		if err != nil {
			return
		}
		seq, _ := pvm.Wrap(body).UnpackInt64()
		ack := pvm.Wrap(nil).PackInt64(seq + 1).PackInt32(ackOK).PackString("")
		tr.owe(&tr.acks, 1)
		_, _ = tr.peer.Write(AppendFrame(nil, frameAck, ack.Bytes()))
	}()

	hold := make(chan struct{})
	recv := sys.Spawn("recv", func(*pvm.Task) error { <-hold; return nil })
	var flushErr, sendErr error
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(hold)
		if err := task.Send(recv, 1, pvm.NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		flushErr = task.Flush()
		sendErr = task.Send(recv, 1, pvm.NewBuffer().PackInt32(2))
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !errors.Is(flushErr, ErrBadFrame) {
		t.Fatalf("Flush after a misnumbered ack = %v, want ErrBadFrame", flushErr)
	}
	if !errors.Is(sendErr, ErrBadFrame) {
		t.Fatalf("Send on the failed link = %v, want ErrBadFrame", sendErr)
	}
}

// answerOnePost posts one batch over a pipeTransport and answers it as
// the pump would, with one ACK frame of the given body; it returns what
// the sender's Flush and the link then report.
func answerOnePost(t *testing.T, body []byte) (flushErr, linkErr error) {
	t.Helper()
	tr := newPipeTransport(t)
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	go func() {
		if _, _, _, _, err := ReadFrame(tr.peer, nil); err != nil {
			return
		}
		tr.owe(&tr.acks, 1)
		_, _ = tr.peer.Write(AppendFrame(nil, frameAck, body))
	}()
	hold := make(chan struct{})
	recv := sys.Spawn("recv", func(*pvm.Task) error { <-hold; return nil })
	sys.Spawn("send", func(task *pvm.Task) error {
		defer close(hold)
		if err := task.Send(recv, 1, pvm.NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		flushErr = task.Flush()
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return flushErr, tr.failErr
}

func TestMalformedAckFailsTheLink(t *testing.T) {
	// An ACK that names the pending post and its verdict but whose detail
	// is missing or does not decode fails the link with ErrBadFrame, and
	// the post with it: it must not settle the post as delivered.
	head := pvm.Wrap(nil).PackInt64(1).PackInt32(ackOK).Bytes()
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"no detail", nil},
		{"one stray byte", []byte{0xff}},
		{"detail of 5 bytes with 1 sent", pvm.Wrap(nil).PackString("hello").Bytes()[:6]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			flushErr, linkErr := answerOnePost(t, append(head[:len(head):len(head)], tc.tail...))
			if !errors.Is(linkErr, ErrBadFrame) || !errors.Is(flushErr, ErrBadFrame) {
				t.Fatalf("Flush %v, link failure %v; want ErrBadFrame for both", flushErr, linkErr)
			}
		})
	}
}

// frameCountObserver counts wire frames via the FrameObserver
// extension, structurally like obsv.Recorder.
type frameCountObserver struct {
	mu     sync.Mutex
	frames map[string]int
	bytes  map[string]int
}

func (o *frameCountObserver) MailboxDepth(int) {}
func (o *frameCountObserver) PoolDraw(bool)    {}
func (o *frameCountObserver) TransportFrame(transport string, out bool, frameBytes int) {
	dir := "in"
	if out {
		dir = "out"
	}
	o.mu.Lock()
	o.frames[transport+"/"+dir]++
	o.bytes[transport+"/"+dir] += frameBytes
	o.mu.Unlock()
}

func TestLoopbackFrameObserver(t *testing.T) {
	// Process-global observer: not parallel, restored on cleanup.
	obs := &frameCountObserver{frames: map[string]int{}, bytes: map[string]int{}}
	pvm.SetObserver(obs)
	t.Cleanup(func() { pvm.SetObserver(nil) })

	tr, err := NewLoopback("unix")
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(tr); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	recv := sys.Spawn("recv", func(task *pvm.Task) error {
		m, err := task.RecvTimeout(pvm.AnySource, 1, 10*time.Second)
		if err != nil {
			return err
		}
		m.Release()
		return nil
	})
	sys.Spawn("send", func(task *pvm.Task) error {
		return task.Send(recv, 1, pvm.NewBuffer().PackInt32(7))
	})
	if err := sys.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	// At least: hello+batch written, hello(read)+welcome+ack traffic.
	if obs.frames["unix/out"] == 0 || obs.frames["unix/in"] == 0 {
		t.Fatalf("frame observer saw %v", obs.frames)
	}
	if obs.bytes["unix/out"] == 0 || obs.bytes["unix/in"] == 0 {
		t.Fatalf("frame observer byte counts %v", obs.bytes)
	}
}

// Sever arms an abrupt connection teardown after n more delivered
// frames (0 = at the next frame). Batches still un-acked then fail at
// their sender's Flush, and later Delivers at once, with
// pvm.ErrPeerLost, which the engines detect as a peer failure.
func (l *Loopback) Sever(n int64) {
	l.sevMu.Lock()
	l.severAfter = n
	l.sevMu.Unlock()
}
