package collective

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

// roundTree is the tree of the wall-clock benchmark's coll_tcp workload.
func roundTree() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }

// collRound runs warm untimed and then rounds measured rounds of BcastHier
// (two-phase at the top), GatherHier, AllReduce(Sum), TotalExchangeHier
// and PlannedBcast, n bytes each, on tr; the root calls begin before the
// first measured round and end after the last.
func collRound(tr *model.Tree, n, warm, rounds int, begin, end func()) hbsp.Program {
	p, root := tr.NProcs(), tr.Pid(tr.FastestLeaf())
	data, planned := payloadFor(root, n), payloadFor(root+1, n)
	vec := make([]int64, n/p/8)
	pieces := make([][]byte, p)
	outgoing := make([]map[int][]byte, p)
	for src := range outgoing {
		pieces[src] = payloadFor(src, n/p)
		outgoing[src] = make(map[int][]byte, p)
		for dst := 0; dst < p; dst++ {
			outgoing[src][dst] = payloadFor(src*p+dst, n/(p*p))
		}
	}
	pl := plan.New()
	return func(c hbsp.Ctx) error {
		pid := c.Pid()
		var in, pin []byte
		if pid == root {
			in, pin = data, planned
		}
		for r := 0; r < warm+rounds; r++ {
			if r == warm && pid == root {
				begin()
			}
			if _, err := BcastHier(c, in, true); err != nil {
				return err
			}
			if _, err := GatherHier(c, pieces[pid]); err != nil {
				return err
			}
			if _, err := AllReduce(c, vec, Sum); err != nil {
				return err
			}
			if _, err := TotalExchangeHier(c, outgoing[pid]); err != nil {
				return err
			}
			if _, err := PlannedBcast(c, pl, n, pin); err != nil {
				return err
			}
		}
		if pid == root {
			end()
		}
		return nil
	}
}

// wireWrites counts the frames a wire transport writes and their bytes,
// length prefixes included, through pvm's FrameObserver extension. It is
// installed process-wide, so a test using it must not run in parallel.
type wireWrites struct{ frames, bytes atomic.Int64 }

func (w *wireWrites) MailboxDepth(int) {}
func (w *wireWrites) PoolDraw(bool)    {}
func (w *wireWrites) TransportFrame(_ string, out bool, frameBytes int) {
	if out {
		w.frames.Add(1)
		w.bytes.Add(int64(frameBytes))
	}
}

// BenchmarkCollectiveRound is the collective rung of the ladder, the Go
// benchmark twin of the wall-clock benchmark's coll_tcp workload: ns/op
// is one round of collRound at 64 KiB each, on the four processors of
// WideAreaGrid(2,2,4,10,100) on Concurrent, in-proc and over TCP
// loopback; B/op and allocs/op are everything the round allocates, on
// every processor. The tcp lane reports wire-B/op, the bytes of the
// frames the round writes (its batches and their acks), and
// syscalls/op, the round's read and write system calls, and apart as
// reads/op and writes/op, where /proc/self/io counts them
// (TestCollectiveRoundSyscalls gates the frames and the sum).
// TestCollectiveRoundAllocsInProc gates the in-proc lane's bytes; the
// ceilings of hier_test.go hold each collective's copies on Virtual.
func BenchmarkCollectiveRound(b *testing.B) {
	const n, warm = 64 << 10, 30
	for _, tf := range pvm.TransportFactories() {
		if tf.Name != "inproc" && tf.Name != "tcp" {
			continue
		}
		b.Run(tf.Name, func(b *testing.B) {
			tr := roundTree()
			b.SetBytes(5 * n)
			b.ReportAllocs()
			var reads, writes, wire [2]int64
			var ww wireWrites
			wired := tf.Name != "inproc"
			if wired {
				pvm.SetObserver(&ww)
				defer pvm.SetObserver(nil)
			}
			counted := wired
			begin := func() {
				if counted {
					reads[0], writes[0], counted = testutil.Syscalls()
				}
				wire[0] = ww.bytes.Load()
				b.ResetTimer()
			}
			end := func() {
				b.StopTimer()
				if counted {
					reads[1], writes[1], _ = testutil.Syscalls()
				}
				wire[1] = ww.bytes.Load()
			}
			if _, err := conformanceEngine(tf, tr).Run(collRound(tr, n, warm, b.N, begin, end)); err != nil {
				b.Fatal(err)
			}
			if wired {
				b.ReportMetric(float64(wire[1]-wire[0])/float64(b.N), "wire-B/op")
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

// TestCollectiveRoundSyscalls holds BenchmarkCollectiveRound's tcp lane
// at GOMAXPROCS 1, the benchmark harness's setting, to three ceilings a
// round. Frames written: 60, a BATCH frame for each of the round's 30
// Deliver calls and an ACK for each. It wrote 74, 37 of each, when the
// hierarchical broadcast's exchange also sent every scope's root the
// pieces it had cut. The bytes of those frames: 625 320, as measured;
// 625 480 when every engine message also packed its sender, 5 bytes each
// of the round's 32. Read and write system calls: 70. The round makes
// some sixteen group writes; the pump reads each owed burst by 256 KiB
// slabs and acks it with one write, so about 65 were measured. It was
// 141.3 (88.2 reads, 53.2 writes) when the pump read each frame past its
// 4 KiB buffer with two reads, one for the header and one for the body,
// and acked each such frame with a write of its own.
func TestCollectiveRoundSyscalls(t *testing.T) {
	if _, _, ok := testutil.Syscalls(); !ok {
		t.Skip("no /proc/self/io: the system-call counters are Linux's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, warm, rounds, ceiling, frameCeiling, byteCeiling = 64 << 10, 30, 200, 70, 60, 625_320
	var tcp pvm.TransportFactory
	for _, tf := range pvm.TransportFactories() {
		if tf.Name == "tcp" {
			tcp = tf
		}
	}
	var ww wireWrites
	pvm.SetObserver(&ww)
	defer pvm.SetObserver(nil)
	// The frames are counted over whole runs, the warm rounds alone and
	// then with the measured rounds: a write is observed when it returns,
	// which for a burst the pump takes in part may be after its receiver,
	// and so the root, has moved on past a window's edge. Run returns
	// once every write has.
	var r0, w0, r1, w1 int64
	tr := roundTree()
	run := func(rounds int, begin, end func()) (frames, wire int64) {
		f0, b0 := ww.frames.Load(), ww.bytes.Load()
		if _, err := conformanceEngine(tcp, tr).Run(collRound(tr, n, warm, rounds, begin, end)); err != nil {
			t.Fatal(err)
		}
		return ww.frames.Load() - f0, ww.bytes.Load() - b0
	}
	warmFrames, warmWire := run(0, func() {}, func() {})
	allFrames, allWire := run(rounds,
		func() { r0, w0, _ = testutil.Syscalls() },
		func() { r1, w1, _ = testutil.Syscalls() })
	reads, writes := float64(r1-r0)/rounds, float64(w1-w0)/rounds
	frames, wire := float64(allFrames-warmFrames)/rounds, float64(allWire-warmWire)/rounds
	t.Logf("%.1f reads + %.1f writes, %.1f frames of %.0f bytes written a round", reads, writes, frames, wire)
	if frames > frameCeiling {
		t.Errorf("%.1f frames written a tcp round, ceiling %d", frames, frameCeiling)
	}
	if wire > byteCeiling {
		t.Errorf("%.0f frame bytes written a tcp round, ceiling %d", wire, byteCeiling)
	}
	if reads+writes > ceiling {
		t.Errorf("%.1f read and write system calls a tcp round, ceiling %d", reads+writes, ceiling)
	}
}

// TestCollectiveRoundAllocsInProc is the allocation ceiling of
// BenchmarkCollectiveRound's in-proc lane: 656 000 bytes a round, on
// every processor. Measured 634 000 to 647 000: the 557 056 bytes of
// results the round returns; AllReduce's three 16 KiB vectors kept
// through a Sync (the root's packed broadcast, the other coordinator's
// copy of it, the fold that coordinator climbs with); and some 17 KB of
// maps, piece lists and envelope slices, step records and arena draws
// the garbage collector emptied the pool for. It was about 913 000 while
// every frame and partial vector only sent was an array of its own, a
// coordinator of GatherHier cloned what it forwarded and the members of
// AllReduce joined the broadcast before decoding it; 1.88 MB while an
// in-proc send copied a payload past 255 bytes into a fresh backing
// instead of an arena one.
func TestCollectiveRoundAllocsInProc(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes the allocation count")
	}
	const n, warm, rounds, ceiling = 64 << 10, 30, 100, 656_000
	var before, after runtime.MemStats
	tr := roundTree()
	prog := collRound(tr, n, warm, rounds, func() { runtime.ReadMemStats(&before) }, func() { runtime.ReadMemStats(&after) })
	if _, err := hbsp.NewConcurrent(tr).Run(prog); err != nil {
		t.Fatal(err)
	}
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("%.0f bytes, %.0f allocations a round", perRound, float64(after.Mallocs-before.Mallocs)/rounds)
	if perRound > ceiling {
		t.Errorf("%.0f bytes allocated a round, ceiling %d", perRound, ceiling)
	}
}
