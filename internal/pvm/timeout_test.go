package pvm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The deadline-bounded primitives back the HBSP failure detectors: a
// dead peer must turn a blocking Recv or Barrier into a typed error,
// never a hang.

func TestRecvTimeoutExpires(t *testing.T) {
	sys := NewSystem()
	sys.Spawn("idle", func(task *Task) error {
		start := time.Now()
		_, err := task.RecvTimeout(AnySource, 7, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("err = %v, want ErrTimeout", err)
		}
		if time.Since(start) > 2*time.Second {
			return fmt.Errorf("timeout took %v", time.Since(start))
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutDeliversEarlyMessage(t *testing.T) {
	sys := NewSystem()
	var a, b TID
	ready := make(chan struct{})
	a = sys.Spawn("sender", func(task *Task) error {
		<-ready
		return task.Send(b, 3, NewBuffer().PackInt32(99))
	})
	b = sys.Spawn("receiver", func(task *Task) error {
		m, err := task.RecvTimeout(a, 3, 5*time.Second)
		if err != nil {
			return err
		}
		defer m.Release()
		v, err := m.Buffer().UnpackInt32()
		if err != nil {
			return err
		}
		if v != 99 {
			return fmt.Errorf("payload = %d, want 99", v)
		}
		return nil
	})
	close(ready)
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelBarrierWakesWaiterTyped(t *testing.T) {
	sys := NewSystem()
	parked := make(chan struct{})
	sys.Spawn("waiter", func(task *Task) error {
		close(parked)
		err := task.Barrier("doomed", 2)
		if !errors.Is(err, ErrCanceled) {
			return fmt.Errorf("err = %v, want ErrCanceled", err)
		}
		// Other barriers are unaffected by the cancellation.
		return task.Barrier("fine", 1)
	})
	go func() {
		<-parked
		time.Sleep(10 * time.Millisecond)
		sys.CancelBarrier("doomed")
	}()
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelBarrierLatchesForLateArrivals(t *testing.T) {
	sys := NewSystem()
	sys.CancelBarrier("gone")
	sys.Spawn("late", func(task *Task) error {
		if err := task.Barrier("gone", 2); !errors.Is(err, ErrCanceled) {
			return fmt.Errorf("err = %v, want ErrCanceled", err)
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
}
