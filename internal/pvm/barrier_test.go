package pvm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// A barrier lives as long as its System: a name's barrier is published on
// its first use and stays in the table, so a reference that has found it
// holds it for good, and the table holds exactly the names ever used.

func (s *System) barrierCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.barriers)
}

// barrierNames returns the table's names, sorted.
func (s *System) barrierNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.barriers))
	for name := range s.barriers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// One name reused across many rounds by many tasks, arriving by name:
// sometimes a fast task re-arrives before the previous round's last
// collector has left, sometimes (the yield) the barrier goes idle between
// rounds. (The name dates from when an idle barrier retired and its name
// started over; now the idle barrier stays.) Every round must still
// gather exactly its own deposits, and the table ends holding the one
// name.
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
				got, err := tk.BarrierExchange("again", n, []byte{byte(i), byte(r), byte(r >> 8)})
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), n)
				}
				seen := make(map[byte]bool)
				for tid, b := range got {
					if len(b) != 3 || TID(b[0]) != tid || int(b[1])|int(b[2])<<8 != r {
						return fmt.Errorf("round %d: deposit of task %d = %v", r, tid, b)
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
	if got := s.barrierNames(); !reflect.DeepEqual(got, []string{"again"}) {
		t.Errorf("the table holds %q, want only the reused name", got)
	}
}

// One barrier cycled for many rounds at GOMAXPROCS 4, half the tasks
// arriving through the references they hold and half by name, with idle
// gaps between rounds (a yield now and then lets every task leave before
// the next arrives), while a neighbour cycles other names of its own.
// (The name dates from when the held barrier could retire in such a gap;
// now a held reference keeps its barrier.) Every round gathers exactly
// its own deposits, one from each task, and once the tasks are done the
// table holds exactly the names they used.
func TestHeldBarrierRefsUnderRetirement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewSystem()
	const n, rounds, others = 8, 2000, 4
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
				deposit := []byte{byte(i), byte(r), byte(r >> 8)}
				var got map[TID][]byte
				var err error
				if i%2 == 0 {
					got, err = tk.Arrive(ref, n, deposit)
				} else {
					got, err = tk.BarrierExchange("cyclic", n, deposit)
				}
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("round %d: %d deposits, want %d", r, len(got), n)
				}
				seen := make(map[byte]bool)
				for tid, b := range got {
					if len(b) != 3 || TID(b[0]) != tid || int(b[1])|int(b[2])<<8 != r {
						return fmt.Errorf("round %d: deposit of task %d = %v", r, tid, b)
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
	s.Spawn("neighbour", func(tk *Task) error {
		for k := 0; ; k++ {
			if k >= others {
				select {
				case <-done:
					return nil
				default:
				}
			}
			if err := tk.Barrier(fmt.Sprintf("other#%d", k%others), 1); err != nil {
				return err
			}
		}
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"cyclic"}
	for k := 0; k < others; k++ {
		want = append(want, fmt.Sprintf("other#%d", k))
	}
	if got := s.barrierNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("the table holds %d names %q, want the %d used: %q", len(got), got, len(want), want)
	}
}

// A cancel after a round has completed latches exactly as one before
// the first arrival does (the before and during cases are
// TestCancelBarrierLatchesForLateArrivals and
// TestCancelBarrierWakesWaiterTyped): every later arrival gets
// ErrCanceled.
func TestCancelBarrierAfterACompletedRoundLatches(t *testing.T) {
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

// One name as a cyclic barrier for ten thousand generations, the way the
// HBSP engine and the benchmark's probe use one: rounds nobody deposits
// in, rounds everybody does, rounds where only the even tasks do while
// the odd ones come through Barrier, and now and then a uniquely named
// barrier beside it. Every participant gets exactly its own round's
// deposits — a late waker of round g never sees g+1's — a deposit-free
// round returns a nil map, the table holds exactly the names used so far,
// and on the much-reused barrier a cancel still latches.
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
					got, err = tk.BarrierExchange("cyclic", n, nil)
				case r%3 == 1:
					got, err = tk.BarrierExchange("cyclic", n, deposit(i, r))
					want = n
				case i%2 == 0:
					got, err = tk.BarrierExchange("cyclic", n, deposit(i, r))
					want = n / 2
				default:
					err = tk.Barrier("cyclic", n)
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
				// The cyclic name and every unique one up to this round:
				// all tasks have arrived at each, and no task is past the
				// next cyclic round.
				if live, used := s.barrierCount(), 1+(r+1)/10; live != used {
					return fmt.Errorf("round %d: %d barriers in the table, want the %d names used so far", r, live, used)
				}
			}
			got, err := tk.BarrierExchange("cyclic", n, deposit(i, rounds))
			if err != nil {
				return err
			}
			if err := check(rounds, got, n); err != nil {
				return fmt.Errorf("last round: %w", err)
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
	// cyclic, the unique names, settled and canceled.
	if live, used := s.barrierCount(), 1+rounds/10+2; live != used {
		t.Errorf("the table holds %d barriers, want the %d names used", live, used)
	}
}

// lookup returns name's barrier, published as a first arrival would.
func lookup(t *testing.T, s *System, name string) *barrier {
	t.Helper()
	b, err := s.lockBarrier(&BarrierRef{Name: name}, false)
	if err != nil {
		t.Fatal(err)
	}
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

// An arrival by reference after Halt fails with ErrHalted, whether the
// reference holds its barrier — Halt marked it — or has yet to find one:
// a second reference to the held barrier's name, or a name nobody has
// used.
func TestArriveByRefAfterHaltFails(t *testing.T) {
	s := NewSystem()
	held := &BarrierRef{Name: "held"}
	s.Spawn("t", func(tk *Task) error {
		_, err := tk.Arrive(held, 1, nil)
		return err
	})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if b := lookup(t, s, "held"); held.b != b {
		t.Fatal("the reference does not hold its name's barrier")
	}
	s.Halt()
	s.Spawn("late", func(tk *Task) error {
		// A lone arrival would complete its round on the spot: the check
		// must come first.
		for _, ref := range []*BarrierRef{held, {Name: "held"}, {Name: "unused"}} {
			if _, err := tk.Arrive(ref, 1, nil); !errors.Is(err, ErrHalted) {
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
	b := lookup(t, s, "held")
	s.Spawn("t", func(tk *Task) error {
		if _, err := tk.Arrive(ref, 1, nil); err != nil {
			return err
		}
		if ref.b != b {
			return errors.New("the reference does not hold the barrier")
		}
		for try := 0; try < 2; try++ {
			if _, err := tk.Arrive(ref, 2, nil); !errors.Is(err, ErrCanceled) {
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
