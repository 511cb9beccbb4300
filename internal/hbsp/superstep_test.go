package hbsp

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/pvm/wiretrans"
	"hbspk/internal/testutil"
)

// The engine rung of the ladder (L3): one all-to-all root superstep on
// Concurrent, the program the wall-clock benchmark's sync and bulk
// workloads run, on the same machine.

func superstepTree() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }

// allToAll runs warm untimed and then steps measured all-to-all root
// supersteps of size bytes per pair; processor 0 calls begin before the
// first measured step and end after the last.
func allToAll(size, warm, steps int, begin, end func()) Program {
	return func(c Ctx) error {
		pid, p := c.Pid(), c.NProcs()
		out := make([][]byte, p)
		for dst := range out {
			out[dst] = make([]byte, size)
		}
		for n := 0; n < warm+steps; n++ {
			if n == warm && pid == 0 {
				begin()
			}
			for dst := 0; dst < p; dst++ {
				if dst != pid {
					if err := c.Send(dst, 1, out[dst]); err != nil {
						return err
					}
				}
			}
			if err := SyncAll(c, "exchange"); err != nil {
				return err
			}
			if got := len(c.Moves()); got != p-1 {
				return fmt.Errorf("pid %d step %d: %d messages, want %d", pid, n, got, p-1)
			}
		}
		if pid == 0 {
			end()
		}
		return nil
	}
}

// loopback is the Transport factory of a wiretrans lane; nil for in-proc.
func loopback(network string) func() (pvm.Transport, error) {
	if network == "inproc" {
		return nil
	}
	return func() (pvm.Transport, error) { return wiretrans.NewLoopback(network) }
}

// onOne runs prog on one Concurrent over the network's transport.
func onOne(network string) func(*testing.T, Program) error {
	return func(t *testing.T, prog Program) error {
		eng := NewConcurrent(superstepTree())
		eng.Transport = loopback(network)
		_, err := eng.Run(prog)
		return err
	}
}

// overHub runs prog as one Concurrent per pid — a hub on a unix socket
// for pid 0, a dialed worker for every other — as a multi-process run
// has them, less the address space: every superstep crosses the hub's
// relays.
func overHub(t *testing.T, prog Program) error {
	const timeout = 15 * time.Second
	nprocs := superstepTree().NProcs()
	h, err := wiretrans.NewHub("unix", filepath.Join(t.TempDir(), "hub.sock"), nprocs, 1, timeout)
	if err != nil {
		return err
	}
	defer h.Close()
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for pid := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := NewConcurrent(superstepTree())
			eng.Transport = func() (pvm.Transport, error) {
				if pid == 0 {
					return h, nil
				}
				return wiretrans.DialWorker("unix", h.Addr(), pid, nprocs, 1, timeout)
			}
			_, errs[pid] = eng.Run(prog)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestSteadyStateSuperstepAllocs is the allocation ceiling of a warm
// superstep: what a step may allocate is what outlives it by contract.
// Delivered bytes recycle through the wire arena — an in-proc wire, a
// frame read off the socket — so that is only the step record, a chunk
// of it one step in sixty-four: 0.0 allocations and about 170 bytes per
// step measured, in-proc and over a unix socket, at 64 B a pair and at
// the 256 KiB of the benchmark's bulk workload. It was 4 allocations
// in-proc (the delivery slab of each processor) and 12 over the socket
// (the frame each batch was read into, 3.2 MB a step at 256 KiB).
// The hub lane counts all four processes of a hub-and-workers run, and
// each worker's BARRIER round trip is packed, framed and unpacked afresh
// (the barrier's name a new string each time): 30 allocations and about
// 880 bytes a step measured. A relay that kept the BARRIER frame it read
// instead of releasing it would make that 36 and 2 KB. DESIGN.md §5.4
// has the inventory.
func TestSteadyStateSuperstepAllocs(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes the allocation count")
	}
	for _, lane := range []struct {
		name           string
		size, steps    int
		run            func(*testing.T, Program) error
		allocs, nbytes float64
	}{
		{"inproc", 64, 4000, onOne("inproc"), 1, 4 << 10},
		{"unix", 64, 2000, onOne("unix"), 1, 4 << 10},
		{"unix/256KiB", 256 << 10, 500, onOne("unix"), 1, 4 << 10},
		{"hub/unix", 64, 2000, overHub, 31, 1 << 10},
	} {
		t.Run(lane.name, func(t *testing.T) {
			var before, after runtime.MemStats
			err := lane.run(t, allToAll(lane.size, 500, lane.steps,
				func() { runtime.ReadMemStats(&before) },
				func() { runtime.ReadMemStats(&after) }))
			if err != nil {
				t.Fatal(err)
			}
			perStep := float64(after.Mallocs-before.Mallocs) / float64(lane.steps)
			bytesPerStep := float64(after.TotalAlloc-before.TotalAlloc) / float64(lane.steps)
			t.Logf("%.1f allocations, %.0f bytes per superstep (p = 4)", perStep, bytesPerStep)
			if perStep > lane.allocs || bytesPerStep > lane.nbytes {
				t.Errorf("%.1f allocations and %.0f bytes per warm superstep, ceilings %.0f and %.0f", perStep, bytesPerStep, lane.allocs, lane.nbytes)
			}
		})
	}
}

// emptySteps runs warm untimed and then steps measured empty supersteps
// on the level-th ancestor of processor 0 — its members only; the rest
// of the machine returns at once.
func emptySteps(level, warm, steps int, begin, end func()) Program {
	return func(c Ctx) error {
		scope := c.Tree().ScopeAt(c.Tree().Leaf(0), level)
		if !under(scope, c.Self()) {
			return nil
		}
		for n := 0; n < warm+steps; n++ {
			if n == warm && c.Pid() == 0 {
				begin()
			}
			if err := c.Sync(scope, "empty"); err != nil {
				return err
			}
		}
		if c.Pid() == 0 {
			end()
		}
		return nil
	}
}

// BenchmarkConcurrentSuperstep is the engine twin of wiretrans's
// BenchmarkLoopbackExchange: ns/op is one whole superstep of four
// processors, MB/s its payload bytes, allocs/op everything the four
// Syncs and twelve Sends allocate. 256 KiB is the pair size of the
// wall-clock benchmark's bulk workload, tcp the lane of its collectives.
// The two 0B lanes are supersteps that move nothing, so their ns/op is
// the model's L on this substrate: L_{1,j}, a Sync of one two-leaf
// cluster, and L_{2,0}, a Sync of the whole machine.
func BenchmarkConcurrentSuperstep(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"64B", 64}, {"64KiB", 64 << 10}, {"256KiB", 256 << 10}}
	for _, network := range []string{"inproc", "unix", "tcp"} {
		for _, size := range sizes {
			b.Run(network+"/"+size.name, func(b *testing.B) {
				tree := superstepTree()
				eng := NewConcurrent(tree)
				eng.Transport = loopback(network)
				p := tree.NProcs()
				b.SetBytes(int64(p * (p - 1) * size.n))
				b.ReportAllocs()
				if _, err := eng.Run(allToAll(size.n, 200, b.N, b.ResetTimer, b.StopTimer)); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
	for i, name := range []string{"cluster", "root"} {
		level := i + 1
		b.Run("inproc/0B/"+name, func(b *testing.B) {
			b.ReportAllocs()
			if _, err := NewConcurrent(superstepTree()).Run(emptySteps(level, 200, b.N, b.ResetTimer, b.StopTimer)); err != nil {
				b.Fatal(err)
			}
		})
	}
}
