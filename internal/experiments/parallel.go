package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep points of an experiment are independent measurements: each
// builds or shares a read-only machine tree and runs the virtual engine
// — a sequential simulation — on its own fabric (noise, when enabled,
// is seeded per point by fabricFor). forEachPoint fans them across a
// bounded worker pool: the parallelism is between points, never inside
// one.

// forEachPoint runs fn(i) for every i in [0, n) on at most
// GOMAXPROCS worker goroutines. fn must confine its writes to
// per-index slots of caller-owned slices. The returned error is the
// lowest-index failure — the same one a sequential loop would have
// stopped at — so output does not depend on scheduling.
func forEachPoint(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
