package pvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PackInt32(42, -7).PackInt64(1 << 40).PackFloat64(3.25).
		PackString("héllo").PackBytes([]byte{1, 2, 3})
	if v, err := b.UnpackInt32(); err != nil || v != 42 {
		t.Fatalf("int32 #1 = %v, %v", v, err)
	}
	if v, err := b.UnpackInt32(); err != nil || v != -7 {
		t.Fatalf("int32 #2 = %v, %v", v, err)
	}
	if v, err := b.UnpackInt64(); err != nil || v != 1<<40 {
		t.Fatalf("int64 = %v, %v", v, err)
	}
	if v, err := b.UnpackFloat64(); err != nil || v != 3.25 {
		t.Fatalf("float64 = %v, %v", v, err)
	}
	if v, err := b.UnpackString(); err != nil || v != "héllo" {
		t.Fatalf("string = %q, %v", v, err)
	}
	if v, err := b.UnpackBytes(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v, %v", v, err)
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", b.Remaining())
	}
}

func TestBufferTypeMismatchDetected(t *testing.T) {
	b := NewBuffer().PackInt32(1)
	if _, err := b.UnpackFloat64(); err == nil {
		t.Error("type mismatch not detected")
	}
}

func TestBufferUnderflow(t *testing.T) {
	b := NewBuffer()
	if _, err := b.UnpackInt32(); !errors.Is(err, ErrBufferUnderflow) {
		t.Errorf("err = %v, want ErrBufferUnderflow", err)
	}
}

// TestIntSlicePacksLikeElementAppends: the slice packer sizes its
// field once and fills it in place. Its bytes are those of the codes,
// prefix and element appends it replaces, on an arena buffer (fresh,
// or holding a prior field), on a big vector past the arena's classes,
// and on a Wrap'd buffer with and without spare capacity.
func TestIntSlicePacksLikeElementAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	appended := func(prefix []byte, vs []uint64) []byte {
		out := append(append([]byte(nil), prefix...), codeBytes)
		out = binary.BigEndian.AppendUint32(out, uint32(8*len(vs)))
		for _, v := range vs {
			out = binary.BigEndian.AppendUint64(out, v)
		}
		return out
	}
	prior := NewBuffer().PackInt32(9).Bytes()
	for _, n := range []int{0, 1, 3, 64, 2048, maxPooledCap/8 + 1} {
		i64, raw := make([]int64, n), make([]uint64, n)
		for i := range raw {
			raw[i] = rng.Uint64()
			i64[i] = int64(raw[i])
		}
		for name, buf := range map[string]func() *Buffer{
			"arena":          NewBuffer,
			"arena+prior":    func() *Buffer { return NewBuffer().PackInt32(9) },
			"wrap":           func() *Buffer { return Wrap(nil) },
			"wrap+prior":     func() *Buffer { return Wrap(bytes.Clone(prior)) },
			"wrap+spare-cap": func() *Buffer { return Wrap(make([]byte, 0, 5+8*n)) },
		} {
			var pre []byte
			if strings.HasSuffix(name, "prior") {
				pre = prior
			}
			if got, want := buf().PackInt64Slice(i64).Bytes(), appended(pre, raw); !bytes.Equal(got, want) {
				t.Errorf("%s: PackInt64Slice of %d elements differs from appending them", name, n)
			}
		}
	}
}

func TestPropertyBufferRoundTrip(t *testing.T) {
	f := func(i64 []int64, f64 []float64, s string) bool {
		b := NewBuffer()
		b.PackInt64Slice(i64)
		for _, v := range f64 {
			b.PackFloat64(v)
		}
		b.PackString(s)
		got64, err := b.UnpackInt64Slice()
		if err != nil || len(got64) != len(i64) {
			return false
		}
		for i := range i64 {
			if got64[i] != i64[i] {
				return false
			}
		}
		for _, v := range f64 {
			g, err := b.UnpackFloat64()
			if err != nil || (g != v && !(g != g && v != v)) { // NaN-safe
				return false
			}
		}
		gs, err := b.UnpackString()
		return err == nil && gs == s && b.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSendRecv(t *testing.T) {
	s := NewSystem()
	done := make(chan int32, 1)
	var a TID
	b := s.Spawn("receiver", func(t *Task) error {
		m, err := t.Recv(AnySource, 5)
		if err != nil {
			return err
		}
		defer m.Release()
		v, err := m.Buffer().UnpackInt32()
		if err != nil {
			return err
		}
		done <- v
		return nil
	})
	a = s.Spawn("sender", func(t *Task) error {
		return t.Send(b, 5, NewBuffer().PackInt32(99))
	})
	_ = a
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != 99 {
		t.Errorf("received %d, want 99", v)
	}
}

func TestSelectiveReceiveByTagAndSource(t *testing.T) {
	s := NewSystem()
	result := make(chan []int, 1)
	recv := s.Spawn("recv", func(t *Task) error {
		// Tag 1 was sent first, so it is queued by the time tag 2 is
		// received: selection picks tag 2 past it regardless of arrival.
		var order []int
		m, err := t.Recv(AnySource, 2)
		if err != nil {
			return err
		}
		order = append(order, m.Tag)
		m, err = t.Recv(AnySource, 1)
		if err != nil {
			return err
		}
		order = append(order, m.Tag)
		result <- order
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		if err := t.Send(recv, 1, NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		return t.Send(recv, 2, NewBuffer().PackInt32(2))
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := <-result; got[0] != 2 || got[1] != 1 {
		t.Errorf("selective order = %v, want [2 1]", got)
	}
}

func TestPerSenderOrderPreserved(t *testing.T) {
	s := NewSystem()
	const n = 200
	out := make(chan []int32, 1)
	recv := s.Spawn("recv", func(t *Task) error {
		var got []int32
		for i := 0; i < n; i++ {
			m, err := t.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			v, err := m.Buffer().UnpackInt32()
			m.Release()
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		out <- got
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		for i := int32(0); i < n; i++ {
			if err := t.Send(recv, 0, NewBuffer().PackInt32(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	got := <-out
	for i := int32(0); i < n; i++ {
		if got[i] != i {
			t.Fatalf("order violated at %d: %d", i, got[i])
		}
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	s := NewSystem()
	const n = 8
	var mu sync.Mutex
	before, after := 0, 0
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			mu.Lock()
			before++
			mu.Unlock()
			if err := tk.Barrier("b", n); err != nil {
				return err
			}
			mu.Lock()
			if before != n {
				t.Errorf("task released before all arrived: %d/%d", before, n)
			}
			after++
			mu.Unlock()
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if after != n {
		t.Errorf("after = %d, want %d", after, n)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	s := NewSystem()
	const n, rounds = 4, 5
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(t *Task) error {
			for r := 0; r < rounds; r++ {
				if err := t.Barrier("gen", n); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierExchangeGathersDeposits(t *testing.T) {
	s := NewSystem()
	const n, rounds = 4, 3
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			for r := 0; r < rounds; r++ {
				got, err := tk.BarrierExchange("x", n, 0, []byte{byte(i), byte(r)})
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), n)
				}
				seen := make(map[byte]bool)
				for tid, b := range got {
					if len(b) != 2 || b[1] != byte(r) {
						return fmt.Errorf("round %d: deposit from %d = %v", r, tid, b)
					}
					seen[b[0]] = true
				}
				if len(seen) != n {
					return fmt.Errorf("round %d: deposits from %d distinct tasks, want %d", r, len(seen), n)
				}
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierExchangeTimeoutWithdrawsDeposit(t *testing.T) {
	s := NewSystem()
	release := make(chan struct{})
	s.Spawn("early", func(tk *Task) error {
		// First arrival times out and must take its deposit with it.
		if _, err := tk.BarrierExchange("w", 2, 20*time.Millisecond, []byte("stale")); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("first arrival err = %v, want ErrTimeout", err)
		}
		close(release)
		got, err := tk.BarrierExchange("w", 2, 0, []byte("fresh"))
		if err != nil {
			return err
		}
		for _, b := range got {
			if string(b) == "stale" {
				return errors.New("withdrawn deposit leaked into the completed round")
			}
		}
		if len(got) != 2 {
			return fmt.Errorf("%d deposits, want 2", len(got))
		}
		return nil
	})
	s.Spawn("late", func(tk *Task) error {
		<-release
		got, err := tk.BarrierExchange("w", 2, 0, []byte("peer"))
		if err != nil {
			return err
		}
		if len(got) != 2 {
			return fmt.Errorf("%d deposits, want 2", len(got))
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToUnknownTask(t *testing.T) {
	s := NewSystem()
	s.Spawn("t", func(t *Task) error {
		if err := t.Send(12345, 0, NewBuffer()); err == nil {
			return errors.New("send to unknown task succeeded")
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestHaltUnblocksRecvAndBarrier(t *testing.T) {
	s := NewSystem()
	s.Spawn("stuck-recv", func(t *Task) error {
		_, err := t.Recv(AnySource, AnyTag)
		if !errors.Is(err, ErrHalted) {
			return fmt.Errorf("recv err = %v, want ErrHalted", err)
		}
		return nil
	})
	s.Spawn("stuck-barrier", func(t *Task) error {
		err := t.Barrier("never", 99)
		if !errors.Is(err, ErrHalted) {
			return fmt.Errorf("barrier err = %v, want ErrHalted", err)
		}
		return nil
	})
	s.Halt()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicIsCollected(t *testing.T) {
	s := NewSystem()
	s.Spawn("boom", func(t *Task) error { panic("kaput") })
	err := s.Wait()
	if err == nil {
		t.Fatal("panic not reported")
	}
}

// TestRecvTimeoutZeroProbes: with no deadline RecvTimeout is the
// non-blocking receive — it fails with ErrTimeout at once on no match and
// takes a queued match.
func TestRecvTimeoutZeroProbes(t *testing.T) {
	s := NewSystem()
	s.Spawn("t", func(t *Task) error {
		if m, err := t.RecvTimeout(AnySource, AnyTag, 0); !errors.Is(err, ErrTimeout) {
			if err == nil {
				m.Release()
			}
			return fmt.Errorf("probe of an empty mailbox = %v, want ErrTimeout", err)
		}
		if err := t.Send(t.TID(), 3, NewBuffer().PackInt32(1)); err != nil {
			return err
		}
		if m, err := t.RecvTimeout(AnySource, 4, 0); !errors.Is(err, ErrTimeout) {
			if err == nil {
				m.Release()
			}
			return fmt.Errorf("probe of the wrong tag = %v, want ErrTimeout", err)
		}
		m, err := t.RecvTimeout(AnySource, 3, 0)
		if err != nil {
			return fmt.Errorf("probe missed the matching message: %w", err)
		}
		defer m.Release()
		if m.Tag != 3 {
			return fmt.Errorf("probe took tag %d, want 3", m.Tag)
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random message storm between n tasks loses nothing: every
// byte sent is received.
func TestPropertyNoMessageLoss(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		perTask := 1 + rng.Intn(20)
		s := NewSystem()
		var tids []TID
		var mu sync.Mutex
		received := 0
		ready := make(chan struct{})
		for i := 0; i < n; i++ {
			i := i
			tid := s.Spawn(fmt.Sprintf("t%d", i), func(t *Task) error {
				<-ready
				for j := 0; j < perTask; j++ {
					dst := tids[(i+1+j)%n]
					if dst == t.TID() {
						continue
					}
					if err := t.Send(dst, j, NewBuffer().PackInt32(int32(j))); err != nil {
						return err
					}
				}
				if err := t.Barrier("sent", n); err != nil {
					return err
				}
				for {
					m, err := t.RecvTimeout(AnySource, AnyTag, 0)
					if errors.Is(err, ErrTimeout) {
						break
					}
					if err != nil {
						return err
					}
					_, err = m.Buffer().UnpackInt32()
					m.Release()
					if err != nil {
						return err
					}
					mu.Lock()
					received++
					mu.Unlock()
				}
				return nil
			})
			tids = append(tids, tid)
		}
		close(ready)
		if err := s.Wait(); err != nil {
			return false
		}
		sent := 0
		for i := 0; i < n; i++ {
			for j := 0; j < perTask; j++ {
				if tids[(i+1+j)%n] != tids[i] {
					sent++
				}
			}
		}
		return received == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
