package pvm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Barrier retirement: the HBSP engine names a fresh barrier per
// superstep, so a barrier that has gone idle must leave the table, and
// must do so without a task ever arriving at, or canceling, the orphan.

func (s *System) barrierCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
// What the task then holds is marked retired, so it must start over on
// a fresh barrier — arrivals meet there, and a cancel latches there —
// not park on, or latch, the orphan.
func TestRetiredBarrierIsNeverArrivedAt(t *testing.T) {
	plant := func(s *System, name string) *barrier {
		b := &barrier{retired: true}
		b.cond.L = &b.mu
		s.barriers[name] = b
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
