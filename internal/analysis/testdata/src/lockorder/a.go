// Package lockorder is the golden fixture for the lockorder analyzer:
// a stub pvm.System leaf lock, an early-return unlock and an ABBA
// inversion pair.
package lockorder

import "sync"

type System struct {
	mu    sync.Mutex
	tasks map[int]*Task
}

type Task struct {
	mu   sync.Mutex
	mbox []int
}

type crun struct {
	mu    sync.Mutex
	steps []int
}

type barrier struct {
	mu  sync.Mutex
	gen int
}

// --- violations ---

func lockTaskUnderSystem(s *System, t *Task) {
	s.mu.Lock()
	t.mu.Lock() // want `acquiring Task.mu while holding System.mu`
	t.mbox = append(t.mbox, 1)
	t.mu.Unlock()
	s.mu.Unlock()
}

func lockRunStateUnderSystem(s *System, r *crun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock() // want `acquiring crun.mu while holding System.mu`
	r.steps = append(r.steps, 1)
	r.mu.Unlock()
}

// lockBarrierEarly takes the barrier lock before it lets System.mu go.
// The Unlock before the early return releases only on that path.
func lockBarrierEarly(s *System, b *barrier, halted bool) (*barrier, bool) {
	s.mu.Lock()
	if halted {
		s.mu.Unlock()
		return nil, false
	}
	b.mu.Lock() // want `acquiring barrier.mu while holding System.mu`
	s.mu.Unlock()
	return b, b.gen > 0
}

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func abOrder(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock order inversion`
	b.mu.Unlock()
}

func baOrder(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `lock order inversion`
	a.mu.Unlock()
}

// --- safe patterns ---

func handoff(s *System, t *Task) {
	// The real pvm idiom: snapshot under the System lock, release, then
	// touch the task.
	s.mu.Lock()
	task := s.tasks[0]
	s.mu.Unlock()
	task.mu.Lock()
	task.mbox = nil
	task.mu.Unlock()
	_ = t
}

// lockBarrier is the real pvm order: System.mu is let go on both paths
// before the barrier is locked.
func lockBarrier(s *System, b *barrier, halted bool) (*barrier, bool) {
	s.mu.Lock()
	if halted {
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	b.mu.Lock()
	return b, b.gen > 0
}

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

func consistentOrder1(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

func consistentOrder2(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}
