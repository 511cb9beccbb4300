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

// verified runs prog on one in-proc Concurrent under Verify.
func verified(t *testing.T, prog Program) error {
	eng := NewConcurrent(superstepTree())
	eng.Verify = true
	_, err := eng.Run(prog)
	return err
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
// frame read off the socket — so that is only the step record, an 8 KiB
// chunk of 256 pointer-free 32-byte records one step in 256, its shape
// kept once for the run: 0.0 allocations and 33 to 36 bytes per step
// measured, in-proc and over a unix socket, at 64 B a pair and at 64 KiB
// and 256 KiB (the size of the benchmark's bulk workload). The 48-byte
// ceiling is the record's: a step kept whole as a 112-byte record
// measured about 115, as a 168-byte trace.Step 172 to 178. It was 4
// allocations in-proc (the delivery slab of each processor) and 12 over
// the socket (the frame each batch was read into, 3.2 MB a step at
// 256 KiB); an in-proc send that copied a payload past 255 bytes into a
// fresh backing instead of an arena one made 48 and 887 KB at 64 KiB.
// The hub lane counts all four processes of a hub-and-workers run, and
// each worker's BARRIER round trip is packed, framed and unpacked afresh
// (the barrier's name a new string each time): 30 allocations and about
// 735 bytes a step measured. A relay that kept the BARRIER frame it read
// instead of releasing it would make that 36 and 2 KB. Under Verify
// every message's vector clock is copied, packed and decoded and every
// barrier's deposit packed and decoded: 95.0 allocations and about
// 3 460 bytes a step measured, ceilings 96 and 3 600. It was 99.4 to
// 99.9 and about 4 830 while each deposit was packed into a wire drawn
// from the arena and never returned. DESIGN.md §5.4 has the inventory.
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
		{"inproc", 64, 4000, onOne("inproc"), 1, 48},
		{"inproc/64KiB", 64 << 10, 1000, onOne("inproc"), 1, 48},
		{"inproc/256KiB", 256 << 10, 500, onOne("inproc"), 1, 48},
		{"unix", 64, 2000, onOne("unix"), 1, 48},
		{"unix/256KiB", 256 << 10, 500, onOne("unix"), 1, 48},
		{"hub/unix", 64, 2000, overHub, 31, 1 << 10},
		{"inproc/verify", 64, 2000, verified, 96, 3600},
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

// TestLoopbackSyscallsPerSuperstep is the system-call count of a warm
// all-to-all superstep over a Loopback at GOMAXPROCS 1, the benchmark
// harness's setting, from the process's read and write counters. At 64 B
// on unix the four senders' posts share one vectored write, which the
// socket takes whole, so the goroutine that wrote it reads the step's
// frames back once, writes their acks once and reads them once (the pump
// and the ack reader take no such burst: TestWarmStepIsReadBackByItsWriter)
// — 4 a step, a little more when the runtime's fairness check splits a
// group; it was 9.0 when each sender wrote its own post and the pump and
// the ack reader each read until a read came back empty. The ceiling is 5. At 64 KiB on tcp the pump reads the
// step's twelve frames by 256 KiB slabs, four reads, and acks them with
// one write — with the writev and the ack reader's read, 7.1 measured,
// ceiling 10; it was 38.1 when the pump read each frame's header and
// body apart and acked each frame with a write of its own.
func TestLoopbackSyscallsPerSuperstep(t *testing.T) {
	if _, _, ok := testutil.Syscalls(); !ok {
		t.Skip("no /proc/self/io: the system-call counters are Linux's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, lane := range []struct {
		name, network string
		size, steps   int
		ceiling       float64
	}{
		{"unix/64B", "unix", 64, 2000, 5},
		{"tcp/64KiB", "tcp", 64 << 10, 500, 10},
	} {
		t.Run(lane.name, func(t *testing.T) {
			var r0, w0, r1, w1 int64
			err := onOne(lane.network)(t, allToAll(lane.size, 500, lane.steps,
				func() { r0, w0, _ = testutil.Syscalls() },
				func() { r1, w1, _ = testutil.Syscalls() }))
			if err != nil {
				t.Fatal(err)
			}
			reads, writes := float64(r1-r0)/float64(lane.steps), float64(w1-w0)/float64(lane.steps)
			t.Logf("%.2f reads + %.2f writes per superstep (p = 4)", reads, writes)
			if reads+writes > lane.ceiling {
				t.Errorf("%.2f read and write system calls per warm %s superstep, ceiling %.0f", reads+writes, lane.name, lane.ceiling)
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
// cluster, and L_{2,0}, a Sync of the whole machine. The 64B lanes also
// report retained-B/op: the live heap after a collection grows by that
// much per step, which is the step record's cost to a long run, about 32
// bytes (a step's times and its shape's index; 112 while each step was
// kept whole). The
// socket lanes report syscalls/op, the read and write system calls of a
// step, and apart as reads/op and writes/op (TestLoopbackSyscallsPerSuperstep
// gates the unix/64B and tcp/64KiB ones), where /proc/self/io counts them.
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
				var before, after runtime.MemStats
				var reads, writes [2]int64
				retained, counted := size.n == 64, network != "inproc"
				begin := func() {
					if retained {
						runtime.GC()
						runtime.ReadMemStats(&before)
					}
					if counted {
						reads[0], writes[0], counted = testutil.Syscalls()
					}
					b.ResetTimer()
				}
				end := func() {
					b.StopTimer()
					if counted {
						reads[1], writes[1], _ = testutil.Syscalls()
					}
					if retained {
						runtime.GC()
						runtime.ReadMemStats(&after)
					}
				}
				if _, err := eng.Run(allToAll(size.n, 200, b.N, begin, end)); err != nil {
					b.Fatal(err)
				}
				if retained {
					b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(b.N), "retained-B/op")
				}
				if counted {
					r, w := float64(reads[1]-reads[0])/float64(b.N), float64(writes[1]-writes[0])/float64(b.N)
					b.ReportMetric(r+w, "syscalls/op")
					b.ReportMetric(r, "reads/op")
					b.ReportMetric(w, "writes/op")
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
