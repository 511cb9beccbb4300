package pvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Tests of the pooled wire-buffer fabric: recycling must never alias a
// message the receiver still holds, ownership transfer must reject
// reuse of a sent buffer, and the split-lock mailbox must preserve
// per-sender FIFO under contention. Run these under -race.

// pattern fills a deterministic payload for (sender, n).
func pattern(sender, n, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(sender*31 + n*7 + i)
	}
	return p
}

// TestPoolRecyclingNeverAliasesLiveMessage is the aliasing property
// test: a receiver holds a window of delivered messages while senders
// keep the pool churning; held payloads must stay intact until their
// Release, whatever recycled wire any new send picks up.
func TestPoolRecyclingNeverAliasesLiveMessage(t *testing.T) {
	const (
		senders  = 4
		perSend  = 300
		size     = 512
		holdSize = 64
	)
	s := NewSystem()
	var recvTID TID
	done := make(chan struct{})
	recvTID = s.Spawn("recv", func(rt *Task) error {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		type held struct {
			m    Message
			want []byte
		}
		var window []held
		check := func(h held) error {
			got, err := h.m.Buffer().UnpackBytes()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, h.want) {
				return fmt.Errorf("held message from %d corrupted by recycling", h.m.Src)
			}
			h.m.Release()
			return nil
		}
		counts := make([]int, senders+1)
		for i := 0; i < senders*perSend; i++ {
			m, err := rt.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			want := pattern(int(m.Src), counts[m.Src], size)
			counts[m.Src]++
			window = append(window, held{m: m, want: want})
			// Hold a full window, then verify-and-release in random
			// order: every payload must still read back intact.
			if len(window) >= holdSize {
				rng.Shuffle(len(window), func(a, b int) {
					window[a], window[b] = window[b], window[a]
				})
				for _, h := range window {
					if err := check(h); err != nil {
						return err
					}
				}
				window = window[:0]
			}
		}
		for _, h := range window {
			if err := check(h); err != nil {
				return err
			}
		}
		return nil
	})
	for sn := 1; sn <= senders; sn++ {
		sn := sn
		s.Spawn(fmt.Sprintf("send%d", sn), func(st *Task) error {
			for n := 0; n < perSend; n++ {
				buf := NewBuffer().PackBytes(pattern(int(st.TID()), n, size))
				if err := st.Send(recvTID, sn, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
	<-done
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSizeClasses: a draw of n bytes comes from the smallest class
// whose backings all hold n, a released backing goes back to the largest
// class whose size it covers, and a backing made at a class's size
// returns to that class — so a small draw never takes a frame-sized
// backing and a frame never gets one too small for it.
func TestArenaSizeClasses(t *testing.T) {
	if classSize(nclasses-1) != maxPooledCap {
		t.Fatalf("the last class holds %d-byte backings, want maxPooledCap", classSize(nclasses-1))
	}
	for c := 1; c < nclasses; c++ {
		if size := classSize(c); size <= classSize(c-1) || classUp(size) != c || classDown(size) != c {
			t.Fatalf("class %d (%d B): up %d, down %d", c, size, classUp(size), classDown(size))
		}
	}
	for n := 0; n <= maxPooledCap; n += 1 + n/97 {
		if c := classUp(n); classSize(c) < n || (n > 0 && (c == 0 || classSize(c-1) >= n)) {
			t.Fatalf("a draw of %d B takes class %d (%d B)", n, c, classSize(c))
		}
		if c := classDown(n); classSize(c) > n || (c+1 < nclasses && classSize(c+1) <= n) {
			t.Fatalf("a %d-byte backing goes back to class %d (%d B)", n, c, classSize(c))
		}
	}
	f := NewFrame(300 << 10)
	f.Release()
	if b := NewBuffer(); cap(b.data) >= classSize(1) {
		t.Errorf("NewBuffer drew a %d-byte backing", cap(b.data))
	}
}

// TestMailboxContentionPerSenderFIFO floods one receiver from many
// concurrent senders and asserts messages from each sender arrive in
// send order, wildcard receive or not.
func TestMailboxContentionPerSenderFIFO(t *testing.T) {
	const (
		senders = 8
		perSend = 500
	)
	s := NewSystem()
	var recvTID TID
	done := make(chan struct{})
	recvTID = s.Spawn("recv", func(rt *Task) error {
		defer close(done)
		last := map[TID]int64{}
		for i := 0; i < senders*perSend; i++ {
			m, err := rt.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			n, err := m.Buffer().UnpackInt64()
			if err != nil {
				return err
			}
			m.Release()
			if prev, ok := last[m.Src]; ok && n != prev+1 {
				return fmt.Errorf("sender %d: got %d after %d, want FIFO", m.Src, n, prev)
			}
			last[m.Src] = n
		}
		return nil
	})
	var start sync.WaitGroup
	start.Add(1)
	for sn := 0; sn < senders; sn++ {
		sn := sn
		s.Spawn(fmt.Sprintf("send%d", sn), func(st *Task) error {
			start.Wait()
			for n := 0; n < perSend; n++ {
				if err := st.Send(recvTID, sn, NewBuffer().PackInt64(int64(n))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	start.Done()
	<-done
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSendRejectsReuse: ownership of a buffer transfers on send, so
// sending it again must fail rather than alias a possibly recycled
// wire.
func TestSendRejectsReuse(t *testing.T) {
	s := NewSystem()
	var a TID
	errs := make(chan error, 1)
	a = s.Spawn("a", func(t *Task) error {
		m, err := t.Recv(AnySource, 1)
		if err != nil {
			return err
		}
		m.Release()
		return nil
	})
	s.Spawn("b", func(t *Task) error {
		buf := NewBuffer().PackInt32(7)
		if err := t.Send(a, 1, buf); err != nil {
			errs <- err
			return err
		}
		errs <- t.Send(a, 1, buf)
		return nil
	})
	if err := <-errs; err == nil {
		t.Fatal("second Send of the same buffer succeeded, want ownership error")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPackIntoSentBufferPanics: a sent buffer's bytes are in flight, so
// a pack into it panics and leaves them alone. Growing it would hand the
// delivered backing back to the arena, and the next NewBuffers would
// pack over the receiver's payload.
func TestPackIntoSentBufferPanics(t *testing.T) {
	s := NewSystem()
	s.Spawn("self", func(tk *Task) error {
		want := pattern(1, 0, 35)
		buf := NewBuffer().PackBytes(want) // 40 bytes packed
		if err := tk.Send(tk.TID(), 1, buf); err != nil {
			return err
		}
		panicked := func() (yes bool) {
			defer func() { yes = recover() != nil }()
			buf.PackBytes(make([]byte, 4<<10))
			return false
		}()
		if !panicked {
			return fmt.Errorf("a pack into a sent buffer did not panic")
		}
		for i := 0; i < 8; i++ {
			NewBuffer().PackBytes(bytes.Repeat([]byte{0xaa}, len(want)))
		}
		m, err := tk.Recv(tk.TID(), 1)
		if err != nil {
			return err
		}
		defer m.Release()
		if got, err := m.Buffer().UnpackBytes(); err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("delivered payload % x (%v), want % x", got, err, want)
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSendBatchDeliversInOrder covers the engines' bulk-delivery path:
// one SendBatch must arrive as consecutive messages in slice order.
func TestSendBatchDeliversInOrder(t *testing.T) {
	const n = 100
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	recvTID = s.Spawn("recv", func(t *Task) error {
		for i := 0; i < n; i++ {
			m, err := t.Recv(AnySource, 5)
			if err != nil {
				done <- err
				return err
			}
			got, err := m.Buffer().UnpackInt64()
			if err != nil {
				done <- err
				return err
			}
			m.Release()
			if got != int64(i) {
				err := fmt.Errorf("message %d carries %d, want batch order", i, got)
				done <- err
				return err
			}
		}
		done <- nil
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		bufs := make([]*Buffer, n)
		for i := range bufs {
			bufs[i] = NewBuffer().PackInt64(int64(i))
		}
		return t.SendBatch(recvTID, 5, bufs)
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTryRecvAll covers the bulk drain: exact-match drains one queue
// in arrival order; the wildcard merges queues by arrival stamp.
func TestTryRecvAll(t *testing.T) {
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	sent := make(chan struct{})
	recvTID = s.Spawn("recv", func(t *Task) error {
		<-sent
		report := func(err error) error { done <- err; return err }
		exact := t.TryRecvAll(AnySource, 9)
		if len(exact) != 3 {
			return report(fmt.Errorf("tag 9: got %d messages, want 3", len(exact)))
		}
		for i, m := range exact {
			got, err := m.Buffer().UnpackInt64()
			if err != nil {
				return report(err)
			}
			if got != int64(i) {
				return report(fmt.Errorf("tag 9 message %d carries %d, want arrival order", i, got))
			}
			m.Release()
		}
		rest := t.TryRecvAll(AnySource, AnyTag)
		if len(rest) != 2 {
			return report(fmt.Errorf("wildcard: got %d messages, want 2", len(rest)))
		}
		for i, m := range rest {
			if m.Tag != 10+i {
				return report(fmt.Errorf("wildcard message %d has tag %d, want stamp order", i, m.Tag))
			}
			m.Release()
		}
		if extra := t.TryRecvAll(AnySource, AnyTag); len(extra) != 0 {
			return report(fmt.Errorf("drained mailbox still yields %d messages", len(extra)))
		}
		return report(nil)
	})
	s.Spawn("send", func(t *Task) error {
		for i := 0; i < 3; i++ {
			if err := t.Send(recvTID, 9, NewBuffer().PackInt64(int64(i))); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if err := t.Send(recvTID, 10+i, NewBuffer().PackInt64(int64(i))); err != nil {
				return err
			}
		}
		close(sent)
		return nil
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseTwicePanics: over-releasing is a refcount bug and must
// fail loudly, not silently double-free into the pool.
func TestReleaseTwicePanics(t *testing.T) {
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	recvTID = s.Spawn("recv", func(t *Task) error {
		m, err := t.Recv(AnySource, 1)
		if err != nil {
			done <- err
			return err
		}
		m.Release()
		defer func() {
			if recover() == nil {
				done <- fmt.Errorf("second Release did not panic")
			} else {
				done <- nil
			}
		}()
		m.Release()
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		return t.Send(recvTID, 1, NewBuffer().PackInt32(1))
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRecvAllIntoCallerSlice: the append form leaves what dst
// already holds alone, adds the matches in arrival order behind it, and
// a second drain into dst[:0] reuses the backing instead of growing one.
func TestAppendRecvAllIntoCallerSlice(t *testing.T) {
	s := NewSystem()
	s.Spawn("self", func(tk *Task) error {
		send := func(tags ...int) error {
			for _, tag := range tags {
				if err := tk.Send(tk.TID(), tag, NewBuffer().PackInt32(int32(tag))); err != nil {
					return err
				}
			}
			return nil
		}
		if err := send(3, 4, 3, 5); err != nil {
			return err
		}
		held := Message{Tag: -7}
		got := tk.AppendRecvAll([]Message{held}, tk.TID(), AnyTag)
		if len(got) != 5 || got[0].Tag != -7 {
			return fmt.Errorf("drained %d messages behind tag %d, want 4 behind the held one", len(got)-1, got[0].Tag)
		}
		for i, want := range []int{3, 4, 3, 5} {
			if m := got[1+i]; m.Tag != want {
				return fmt.Errorf("message %d has tag %d, want arrival order %d", i, m.Tag, want)
			}
			got[1+i].Release()
		}
		if err := send(6, 7); err != nil {
			return err
		}
		again := tk.AppendRecvAll(got[:0], AnySource, AnyTag)
		if len(again) != 2 || again[0].Tag != 6 || again[1].Tag != 7 {
			return fmt.Errorf("second drain: %d messages, want tags 6, 7", len(again))
		}
		if &again[0] != &got[0] {
			return fmt.Errorf("second drain did not reuse the caller's backing")
		}
		for _, m := range again {
			m.Release()
		}
		if n := queued(tk); n != 0 {
			return fmt.Errorf("%d messages still queued after the drains", n)
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSendBatchRejectsReuseWhole: a batch holding an already-sent buffer
// fails and delivers nothing — not even the sound buffers ahead of the
// bad one, which were staged before it was found.
func TestSendBatchRejectsReuseWhole(t *testing.T) {
	s := NewSystem()
	s.Spawn("self", func(tk *Task) error {
		spent := NewBuffer().PackInt32(1)
		if err := tk.Send(tk.TID(), 1, spent); err != nil {
			return err
		}
		batch := []*Buffer{NewBuffer().PackInt32(2), spent, NewBuffer().PackInt32(3)}
		if err := tk.SendBatch(tk.TID(), 2, batch); err == nil {
			return fmt.Errorf("a batch with a sent buffer was accepted")
		}
		got := tk.TryRecvAll(AnySource, AnyTag)
		defer func() {
			for _, m := range got {
				m.Release()
			}
		}()
		if len(got) != 1 || got[0].Tag != 1 {
			return fmt.Errorf("mailbox holds %d messages after the rejected batch, want only the first send", len(got))
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}
