package pvm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Barrier retirement: a caller may name a fresh barrier per round (the
// HBSP engine's cut windows do), so a barrier that has gone idle must
// leave the table, and must do so without a task ever arriving at, or
// canceling, the orphan — even once the orphan has been drawn again
// under another name.

func (s *System) barrierCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.barriers)
}

// Fresh names, one per round: the table holds at most the names in
// flight — the round being left and the round being entered — and
// nothing once the tasks are done. Before retirement it ended with one
// dead barrier per round.
func TestBarriersRetireWhenIdle(t *testing.T) {
	s := NewSystem()
	const n, rounds = 4, 500
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			for r := 0; r < rounds; r++ {
				if err := tk.Barrier(fmt.Sprintf("step#%d", r), n); err != nil {
					return err
				}
				if live := s.barrierCount(); live > 2 {
					return fmt.Errorf("after round %d the table holds %d barriers, want at most 2", r, live)
				}
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if live := s.barrierCount(); live != 0 {
		t.Errorf("%d barriers left in the table after every round completed, want 0", live)
	}
}

// One name reused across many rounds by many tasks while retirement
// runs in the gaps between them: sometimes a fast task re-arrives before
// the previous round's last collector has left, sometimes (the yield)
// the barrier goes idle, is retired and the name starts over at
// generation zero. Every round must still gather exactly its own
// deposits.
func TestBarrierReuseRacesRetirement(t *testing.T) {
	s := NewSystem()
	const n, rounds = 8, 2000
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			for r := 0; r < rounds; r++ {
				if r%2 == 1 {
					runtime.Gosched()
				}
				got, err := tk.BarrierExchange("again", n, 0, []byte{byte(i), byte(r), byte(r >> 8)})
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), n)
				}
				seen := make(map[byte]bool)
				for tid, b := range got {
					if len(b) != 3 || int(b[1])|int(b[2])<<8 != r {
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
	if live := s.barrierCount(); live != 0 {
		t.Errorf("%d barriers left in the table, want 0", live)
	}
}

// The window the stress above rarely hits, staged: a task has looked the
// barrier up and, before it locks it, the last collector retires it.
// What the task then holds is past the life it was published at, so it
// must start over on a fresh barrier — arrivals meet there, and a cancel
// latches there — not park on, or latch, the orphan.
func TestRetiredBarrierIsNeverArrivedAt(t *testing.T) {
	plant := func(s *System, name string) *barrier {
		b := &barrier{life: 1}
		b.cond.L = &b.mu
		s.barriers[name] = barrierRef{b: b}
		return b
	}
	s := NewSystem()
	orphan := plant(s, "met")
	latched := plant(s, "latched")
	s.CancelBarrier("latched")
	const n = 2
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			if err := tk.Barrier("met", n); err != nil {
				return err
			}
			if err := tk.Barrier("latched", n); !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("arrival at the canceled name: err = %v, want ErrCanceled", err)
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if orphan.arrived != 0 || orphan.gen != 0 || latched.canceled {
		t.Errorf("an orphan was used: met arrived=%d gen=%d, latched canceled=%v", orphan.arrived, orphan.gen, latched.canceled)
	}
}

// A cancel after a round has completed and retired its barrier latches
// exactly as one before the first arrival does (the before and during
// cases are TestCancelBarrierLatchesForLateArrivals and
// TestCancelBarrierWakesWaiterTyped): every later arrival gets
// ErrCanceled, and the latched name is never retired by them.
func TestCancelBarrierAfterRetiredRoundLatches(t *testing.T) {
	s := NewSystem()
	const n = 3
	var collected sync.WaitGroup
	collected.Add(n)
	canceled := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			if err := tk.Barrier("round", n); err != nil {
				return fmt.Errorf("the round before the cancel: %w", err)
			}
			collected.Done()
			if i == 0 {
				collected.Wait()
				if live := s.barrierCount(); live != 0 {
					return fmt.Errorf("%d barriers in the table after the round, want it retired", live)
				}
				s.CancelBarrier("round")
				close(canceled)
			}
			<-canceled
			for try := 0; try < 2; try++ {
				if err := tk.Barrier("round", n); !errors.Is(err, ErrCanceled) {
					return fmt.Errorf("arrival %d after the cancel: err = %v, want ErrCanceled", try, err)
				}
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if live := s.barrierCount(); live != 1 {
		t.Errorf("the table holds %d barriers, want the one canceled name", live)
	}
}

func (s *System) freeBarriers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bfree)
}

// One name as a cyclic barrier for ten thousand generations, the way the
// HBSP engine and the benchmark's probe use one: rounds nobody deposits
// in, rounds everybody does, rounds where only the even tasks do while
// the odd ones come through BarrierTimeout, and now and then a uniquely
// named barrier beside it so that retirement and the free list are in
// play. Every participant gets exactly its own round's deposits — a late
// waker of round g never sees g+1's — a deposit-free round returns a nil
// map, the table and the free list stay bounded, and on the much-reused
// barrier a timed-out arrival still withdraws and a cancel still latches.
func TestCyclicBarrierTenThousandGenerations(t *testing.T) {
	s := NewSystem()
	const n, rounds = 4, 10000
	deposit := func(i, r int) []byte { return []byte{byte(i), byte(r), byte(r >> 8)} }
	check := func(r int, got map[TID][]byte, want int) error {
		if len(got) != want {
			return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), want)
		}
		for tid, b := range got {
			if len(b) != 3 || int(b[1])|int(b[2])<<8 != r || TID(b[0]) != tid {
				return fmt.Errorf("round %d: deposit of task %d = %v", r, tid, b)
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			for r := 0; r < rounds; r++ {
				if (r+i)%7 == 0 {
					runtime.Gosched() // spread the arrivals: late wakers, idle gaps
				}
				var got map[TID][]byte
				var err error
				want := 0
				switch {
				case r%3 == 0:
					got, err = tk.BarrierExchange("cyclic", n, 0, nil)
				case r%3 == 1:
					got, err = tk.BarrierExchange("cyclic", n, 0, deposit(i, r))
					want = n
				case i%2 == 0:
					got, err = tk.BarrierExchange("cyclic", n, 0, deposit(i, r))
					want = n / 2
				default:
					err = tk.BarrierTimeout("cyclic", n, time.Minute)
				}
				if err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				if want == 0 && got != nil {
					return fmt.Errorf("round %d: a round without deposits returned %v, want a nil map", r, got)
				}
				if err := check(r, got, want); err != nil {
					return err
				}
				if r%10 == 9 {
					if err := tk.Barrier(fmt.Sprintf("once#%d", r), n); err != nil {
						return err
					}
				}
				// The cyclic name, and the unique one being left or entered.
				if live, free := s.barrierCount(), s.freeBarriers(); live > 3 || free > maxFreeBarriers {
					return fmt.Errorf("round %d: %d barriers in the table, %d on the free list", r, live, free)
				}
			}
			// A withdrawn arrival takes its deposit with it, and leaves the
			// arrival beside it — task 1 goes straight to the last round and
			// keeps the barrier busy — where it was.
			if i == 0 {
				if _, err := tk.BarrierExchange("cyclic", n, 5*time.Millisecond, []byte("stale")); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("early arrival: err = %v, want ErrTimeout", err)
				}
			}
			if i != 1 {
				if err := tk.Barrier("withdrawn", n-1); err != nil {
					return err
				}
			}
			last := deposit(i, rounds)
			if i == 0 {
				last = nil // or its own deposit would cover a stale one up
			}
			got, err := tk.BarrierExchange("cyclic", n, 0, last)
			if err != nil {
				return err
			}
			if err := check(rounds, got, n-1); err != nil {
				return fmt.Errorf("after the withdrawal: %w", err)
			}
			if err := tk.Barrier("settled", n); err != nil {
				return err
			}
			if i == 0 {
				s.CancelBarrier("cyclic")
			}
			if err := tk.Barrier("canceled", n); err != nil {
				return err
			}
			for try := 0; try < 2; try++ {
				if err := tk.Barrier("cyclic", n); !errors.Is(err, ErrCanceled) {
					return fmt.Errorf("arrival %d after the cancel: err = %v, want ErrCanceled", try, err)
				}
			}
			return nil
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if live := s.barrierCount(); live != 1 {
		t.Errorf("the table holds %d barriers, want only the canceled name", live)
	}
}

// A drawn barrier is a fresh one: whatever its previous name left — a
// generation count, a halt — is gone, and a task still holding it from
// that life starts over instead of arriving under the new name.
func TestDrawnBarrierStartsOver(t *testing.T) {
	s := NewSystem()
	b, err := s.lockBarrier(&BarrierRef{Name: "first"}, true)
	if err != nil {
		t.Fatal(err)
	}
	stale := barrierRef{b, b.life}
	b.inside++
	b.gen, b.halted = 41, true
	s.unlockBarrier("first", b)
	if live, free := s.barrierCount(), s.freeBarriers(); live != 0 || free != 1 {
		t.Fatalf("after the only task left: %d in the table, %d free, want 0 and 1", live, free)
	}
	again, err := s.lockBarrier(&BarrierRef{Name: "second"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != b {
		t.Fatal("the retired barrier was not drawn again")
	}
	if again.gen != 0 || again.halted || again.arrived != 0 || again.life == stale.life {
		t.Errorf("drawn barrier: gen=%d halted=%v arrived=%d life=%d (was %d)", again.gen, again.halted, again.arrived, again.life, stale.life)
	}
	again.inside++
	again.mu.Unlock()
	// What "first" resolves to now must not be the barrier "second" owns.
	other, err := s.lockBarrier(&BarrierRef{Name: "first"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if other == b {
		t.Error(`"first" resolved to the barrier now published as "second"`)
	}
	other.mu.Unlock()
}

// Many names at once, then none: what the free list keeps of them is
// bounded.
func TestFreeBarriersAreBounded(t *testing.T) {
	s := NewSystem()
	const names = 3 * maxFreeBarriers
	held := make([]*barrier, names)
	for i := range held {
		b, err := s.lockBarrier(&BarrierRef{Name: fmt.Sprintf("n%d", i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		b.inside++
		b.mu.Unlock()
		held[i] = b
	}
	for i, b := range held {
		b.mu.Lock()
		s.unlockBarrier(fmt.Sprintf("n%d", i), b)
	}
	if live, free := s.barrierCount(), s.freeBarriers(); live != 0 || free != maxFreeBarriers {
		t.Errorf("%d in the table, %d free, want 0 and %d", live, free, maxFreeBarriers)
	}
}

// holdInside keeps name's barrier from retiring, as a task between its
// arrival and its return does, and returns it.
func holdInside(t *testing.T, s *System, name string) *barrier {
	t.Helper()
	b, err := s.lockBarrier(&BarrierRef{Name: name}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.inside++
	b.mu.Unlock()
	return b
}

// awaitArrivals returns once b's open round holds n arrivals.
func awaitArrivals(b *barrier, n int) {
	for {
		b.mu.Lock()
		got := b.arrived
		b.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

// A reference held across a retirement: the barrier it found goes idle,
// retires and is drawn again under another name before the reference's
// next arrival. That arrival must not land on the other name's round; it
// looks its own name up again and meets its partner there. (The deadlines
// turn an arrival on the wrong barrier into a failure, not a hang.)
func TestHeldBarrierRefFallsBackToTheName(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewSystem()
	ref := &BarrierRef{Name: "mine"}
	s.Spawn("holder", func(tk *Task) error {
		if _, err := tk.Arrive(ref, 1, 0, nil); err != nil {
			return err
		}
		first := ref.at.b
		if live, free := s.barrierCount(), s.freeBarriers(); live != 0 || free != 1 {
			return fmt.Errorf("after the lone round: %d in the table, %d free, want it retired", live, free)
		}
		// Another name draws the retired barrier and parks a task there.
		s.Spawn("thief", func(tk *Task) error {
			_, err := tk.BarrierExchange("theirs", 2, 10*time.Second, []byte("thief"))
			return err
		})
		awaitArrivals(first, 1)
		partner := s.Spawn("partner", func(tk *Task) error {
			_, err := tk.BarrierExchange("mine", 2, 10*time.Second, []byte("partner"))
			return err
		})
		got, err := tk.Arrive(ref, 2, 0, []byte("holder"))
		if err != nil {
			return err
		}
		if len(got) != 2 || string(got[tk.TID()]) != "holder" || string(got[partner]) != "partner" {
			return fmt.Errorf("the held reference's round gathered %q", got)
		}
		if ref.at.b == first {
			return errors.New("the reference still holds the barrier drawn under another name")
		}
		first.mu.Lock()
		n := first.arrived
		first.mu.Unlock()
		if n != 1 {
			return fmt.Errorf("the other name's round holds %d arrivals, want its own 1", n)
		}
		_, err = tk.BarrierExchange("theirs", 2, 0, nil)
		return err
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// The same under load: tasks cycle one barrier by reference while a
// neighbour retires and draws barriers under fresh names, so that a held
// barrier is now and then retired between two arrivals and drawn under a
// name of the neighbour's. Every round gathers exactly its own deposits.
func TestHeldBarrierRefsUnderRetirement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewSystem()
	const n, rounds = 4, 2000
	var cycling sync.WaitGroup
	cycling.Add(n)
	done := make(chan struct{})
	go func() {
		cycling.Wait()
		close(done)
	}()
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%d", i), func(tk *Task) error {
			defer cycling.Done()
			ref := &BarrierRef{Name: "cyclic"}
			for r := 0; r < rounds; r++ {
				if (r+i)%3 == 0 {
					runtime.Gosched()
				}
				got, err := tk.Arrive(ref, n, 0, []byte{byte(i), byte(r), byte(r >> 8)})
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), n)
				}
				for tid, b := range got {
					if len(b) != 3 || TID(b[0]) != tid || int(b[1])|int(b[2])<<8 != r {
						return fmt.Errorf("round %d: deposit of task %d = %v", r, tid, b)
					}
				}
			}
			return nil
		})
	}
	s.Spawn("neighbour", func(tk *Task) error {
		for k := 0; ; k++ {
			select {
			case <-done:
				return nil
			default:
			}
			if err := tk.Barrier(fmt.Sprintf("once#%d", k), 1); err != nil {
				return err
			}
		}
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// An arrival by reference after Halt fails with ErrHalted, whether the
// held barrier is still live — Halt marked it — or has retired since.
func TestArriveByRefAfterHaltFails(t *testing.T) {
	s := NewSystem()
	b := holdInside(t, s, "live")
	live, retired := &BarrierRef{Name: "live"}, &BarrierRef{Name: "retired"}
	s.Spawn("t", func(tk *Task) error {
		for _, ref := range []*BarrierRef{retired, live} {
			if _, err := tk.Arrive(ref, 1, 0, nil); err != nil {
				return err
			}
		}
		if live.at.b != b {
			return errors.New("the reference does not hold the live barrier")
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Halt()
	s.Spawn("late", func(tk *Task) error {
		// A lone arrival would complete its round on the spot: the check
		// must come first.
		for _, ref := range []*BarrierRef{live, retired} {
			if _, err := tk.Arrive(ref, 1, 0, nil); !errors.Is(err, ErrHalted) {
				return fmt.Errorf("arrival at %q after Halt: err = %v, want ErrHalted", ref.Name, err)
			}
		}
		return nil
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// CancelBarrier by name wakes a task that arrived through a held
// reference, and every later arrival through it fails the same way.
func TestCancelBarrierWakesAnArrivalByRef(t *testing.T) {
	s := NewSystem()
	ref := &BarrierRef{Name: "held"}
	b := holdInside(t, s, "held")
	s.Spawn("t", func(tk *Task) error {
		if _, err := tk.Arrive(ref, 1, 0, nil); err != nil {
			return err
		}
		if ref.at.b != b {
			return errors.New("the reference does not hold the barrier")
		}
		for try := 0; try < 2; try++ {
			if _, err := tk.Arrive(ref, 2, 0, nil); !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("arrival %d: err = %v, want ErrCanceled", try, err)
			}
		}
		return nil
	})
	awaitArrivals(b, 1)
	s.CancelBarrier("held")
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Tasks spawned while others send: the task table grows under senders
// that read it without a lock (run it under -race), and every spawned
// task is reachable the moment Spawn returns its TID.
func TestSpawnDuringSendBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewSystem()
	const spawned = 64
	one := func(dst TID) []Batch { return []Batch{{Dst: dst, Bufs: []*Buffer{NewBuffer().PackInt32(1)}}} }
	sink := s.Spawn("sink", func(tk *Task) error {
		for got := 0; got < spawned; got++ {
			m, err := tk.Recv(AnySource, 1)
			if err != nil {
				return err
			}
			m.Release()
		}
		return nil
	})
	tids := make(chan TID, spawned)
	s.Spawn("sender", func(tk *Task) error {
		var batches []Batch
		for len(batches) < spawned {
			batches = append(batches, one(<-tids)...)
			for i := range batches {
				batches[i].Bufs = []*Buffer{NewBuffer().PackInt32(1)}
			}
			if err := tk.SendBatches(1, batches); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < spawned; i++ {
		tids <- s.Spawn(fmt.Sprintf("spawned%d", i), func(tk *Task) error {
			if err := tk.SendBatches(1, one(tk.TID())); err != nil {
				return err
			}
			return tk.SendBatches(1, one(sink))
		})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tid := range []TID{-1, TID(len(*s.tasks.Load()))} {
		if _, err := s.task(tid); err == nil {
			t.Errorf("TID %d resolved to a task", tid)
		}
	}
}
