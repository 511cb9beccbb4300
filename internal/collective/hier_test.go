package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

func TestAllGatherHierEveryoneHasEverything(t *testing.T) {
	for _, tr := range []*model.Tree{
		model.Figure1Cluster(),
		model.WideAreaGrid(2, 3, 10, 100, 1000),
		model.UCFTestbedN(5),
		model.SingleProcessor(),
	} {
		tr := tr
		ok := make([]bool, tr.NProcs())
		runPure(t, tr, func(c hbsp.Ctx) error {
			out, err := AllGatherHier(c, payloadFor(c.Pid(), 20+c.Pid()))
			if err != nil {
				return err
			}
			if len(out) != c.NProcs() {
				return fmt.Errorf("pid %d holds %d pieces", c.Pid(), len(out))
			}
			for pid := 0; pid < c.NProcs(); pid++ {
				if !bytes.Equal(out[pid], payloadFor(pid, 20+pid)) {
					return fmt.Errorf("pid %d: piece %d corrupted", c.Pid(), pid)
				}
			}
			ok[c.Pid()] = true
			return nil
		})
		for pid, v := range ok {
			if !v {
				t.Errorf("%s: pid %d incomplete", tr.Root.Name, pid)
			}
		}
	}
}

func TestAllGatherHierBeatsFlatOnSlowWAN(t *testing.T) {
	// On a machine with slow upper links, the hierarchical all-gather
	// must beat the flat one: pieces cross the WAN once, not p times.
	tr := model.WideAreaGrid(3, 6, 20, 25000, 250000)
	piece := 40000
	measure := func(prog hbsp.Program) float64 {
		rep, err := hbsp.RunVirtual(tr, fabric.PureModel(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	flat := measure(func(c hbsp.Ctx) error {
		_, err := AllGather(c, c.Tree().Root, make([]byte, piece))
		return err
	})
	hier := measure(func(c hbsp.Ctx) error {
		_, err := AllGatherHier(c, make([]byte, piece))
		return err
	})
	if hier >= flat {
		t.Errorf("hierarchical all-gather %v should beat flat %v on a slow WAN", hier, flat)
	}
}

func TestScanHierMatchesSequentialPrefix(t *testing.T) {
	for _, tr := range []*model.Tree{
		model.UCFTestbedN(7),
		model.Figure1Cluster(),
		model.WideAreaGrid(2, 4, 8, 50, 500),
		model.DeepChain(3),
		model.SingleProcessor(),
	} {
		tr := tr
		p := tr.NProcs()
		got := make([][]int64, p)
		runPure(t, tr, func(c hbsp.Ctx) error {
			local := []int64{int64(c.Pid() + 1), int64(2 * c.Pid())}
			out, err := ScanHier(c, local, Sum)
			if err != nil {
				return err
			}
			got[c.Pid()] = out
			return nil
		})
		acc0, acc1 := int64(0), int64(0)
		for pid := 0; pid < p; pid++ {
			acc0 += int64(pid + 1)
			acc1 += int64(2 * pid)
			if got[pid][0] != acc0 || got[pid][1] != acc1 {
				t.Errorf("%s: scan[%d] = %v, want [%d %d]", tr.Root.Name, pid, got[pid], acc0, acc1)
			}
		}
	}
}

func TestScanHierMaxOp(t *testing.T) {
	tr := model.Figure1Cluster()
	p := tr.NProcs()
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = int64((i*7 + 3) % 11)
	}
	got := make([]int64, p)
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := ScanHier(c, []int64{vals[c.Pid()]}, Max)
		if err != nil {
			return err
		}
		got[c.Pid()] = out[0]
		return nil
	})
	run := vals[0]
	for pid := 0; pid < p; pid++ {
		if vals[pid] > run {
			run = vals[pid]
		}
		if got[pid] != run {
			t.Errorf("max-scan[%d] = %d, want %d", pid, got[pid], run)
		}
	}
}

func TestScanHierAgreesWithFlatScan(t *testing.T) {
	tr := model.UCFTestbedN(6)
	p := tr.NProcs()
	flat := make([]int64, p)
	hier := make([]int64, p)
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := Scan(c, c.Tree().Root, []int64{int64(3*c.Pid() + 1)}, Sum)
		if err != nil {
			return err
		}
		flat[c.Pid()] = out[0]
		return nil
	})
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := ScanHier(c, []int64{int64(3*c.Pid() + 1)}, Sum)
		if err != nil {
			return err
		}
		hier[c.Pid()] = out[0]
		return nil
	})
	for pid := 0; pid < p; pid++ {
		if flat[pid] != hier[pid] {
			t.Errorf("pid %d: flat %d vs hier %d", pid, flat[pid], hier[pid])
		}
	}
}

func TestReduceScatterSegments(t *testing.T) {
	tr := model.UCFTestbedN(4)
	p := tr.NProcs()
	width := 12
	d := Dist{2, 4, 3, 3} // segment sizes summing to width
	got := make([][]int64, p)
	runPure(t, tr, func(c hbsp.Ctx) error {
		local := make([]int64, width)
		for i := range local {
			local[i] = int64(c.Pid()*100 + i)
		}
		out, err := ReduceScatter(c, c.Tree().Root, local, d, Sum)
		if err != nil {
			return err
		}
		got[c.Pid()] = out
		return nil
	})
	// Expected: element i of the full reduction = Σ_pid (pid*100 + i).
	full := make([]int64, width)
	for i := range full {
		for pid := 0; pid < p; pid++ {
			full[i] += int64(pid*100 + i)
		}
	}
	off := 0
	for pid := 0; pid < p; pid++ {
		if len(got[pid]) != d[pid] {
			t.Fatalf("pid %d segment length %d, want %d", pid, len(got[pid]), d[pid])
		}
		for j, v := range got[pid] {
			if v != full[off+j] {
				t.Errorf("pid %d seg[%d] = %d, want %d", pid, j, v, full[off+j])
			}
		}
		off += d[pid]
	}
}

func TestReduceScatterValidatesDist(t *testing.T) {
	tr := model.UCFTestbedN(3)
	err := func() error {
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			_, err := ReduceScatter(c, c.Tree().Root, make([]int64, 10), Dist{5, 5}, Sum)
			return err
		})
		return err
	}()
	if err == nil {
		t.Error("short dist accepted")
	}
}

// Property: hierarchical scan equals the sequential prefix on random
// trees and random values.
func TestPropertyScanHier(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 3, 3)
		p := tr.NProcs()
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = int64(rngSize(seed, i)) - 40
		}
		got := make([]int64, p)
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			out, err := ScanHier(c, []int64{vals[c.Pid()]}, Sum)
			if err != nil {
				return err
			}
			got[c.Pid()] = out[0]
			return nil
		})
		if err != nil {
			return false
		}
		acc := int64(0)
		for pid := 0; pid < p; pid++ {
			acc += vals[pid]
			if got[pid] != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: AllGatherHier is complete and correct on random trees.
func TestPropertyAllGatherHier(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		okAll := true
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			out, err := AllGatherHier(c, payloadFor(c.Pid(), 1+c.Pid()%5))
			if err != nil {
				return err
			}
			for pid := 0; pid < c.NProcs(); pid++ {
				if !bytes.Equal(out[pid], payloadFor(pid, 1+pid%5)) {
					okAll = false
				}
			}
			return nil
		})
		return err == nil && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScanHierOnConcurrentEngine(t *testing.T) {
	tr := model.Figure1Cluster()
	p := tr.NProcs()
	got := make([]int64, p)
	_, err := hbsp.NewConcurrent(tr).Run(func(c hbsp.Ctx) error {
		out, err := ScanHier(c, []int64{int64(c.Pid() + 1)}, Sum)
		if err != nil {
			return err
		}
		got[c.Pid()] = out[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := int64(0)
	for pid := 0; pid < p; pid++ {
		acc += int64(pid + 1)
		if got[pid] != acc {
			t.Errorf("scan[%d] = %d, want %d", pid, got[pid], acc)
		}
	}
}

func TestTotalExchangeHierTransposes(t *testing.T) {
	for _, tr := range []*model.Tree{
		model.Figure1Cluster(),
		model.WideAreaGrid(3, 3, 10, 100, 1000),
		model.DeepChain(3),
		model.UCFTestbedN(5),
		model.SingleProcessor(),
	} {
		tr := tr
		p := tr.NProcs()
		ok := make([]bool, p)
		runPure(t, tr, func(c hbsp.Ctx) error {
			out := make(map[int][]byte, p)
			for dst := 0; dst < p; dst++ {
				out[dst] = []byte{byte(c.Pid()), byte(dst), byte(c.Pid() ^ dst)}
			}
			in, err := TotalExchangeHier(c, out)
			if err != nil {
				return err
			}
			if len(in) != p {
				return fmt.Errorf("pid %d received %d pieces, want %d", c.Pid(), len(in), p)
			}
			for src := 0; src < p; src++ {
				want := []byte{byte(src), byte(c.Pid()), byte(src ^ c.Pid())}
				if !bytes.Equal(in[src], want) {
					return fmt.Errorf("pid %d from %d: %v want %v", c.Pid(), src, in[src], want)
				}
			}
			ok[c.Pid()] = true
			return nil
		})
		for pid, v := range ok {
			if !v {
				t.Errorf("%s: pid %d incomplete", tr.Root.Name, pid)
			}
		}
	}
}

func TestTotalExchangeHierRegimes(t *testing.T) {
	// The hierarchical exchange trades hops for message count: slow
	// leaves send one bundle to their coordinator instead of one
	// message per remote peer. It wins exactly when per-message cost
	// dominates (many tiny pieces on a software-routed network) and
	// loses on bulk traffic, where the h-relation already aggregates
	// cluster bytes and the extra hop is pure overhead.
	tr := model.WideAreaGrid(3, 6, 15, 25000, 250000)
	p := tr.NProcs()
	measure := func(piece int, overhead float64, hier bool) float64 {
		cfg := fabric.PVM()
		cfg.MsgOverhead = overhead
		cfg.CombineMessages = true
		rep, err := hbsp.RunVirtual(tr, cfg, func(c hbsp.Ctx) error {
			out := make(map[int][]byte, p)
			for dst := 0; dst < p; dst++ {
				out[dst] = payloadFor(c.Pid()*41+dst, piece)
			}
			var err error
			if hier {
				_, err = TotalExchangeHier(c, out)
			} else {
				_, err = TotalExchange(c, c.Tree().Root, out)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	// Tiny pieces, expensive messages: hierarchy wins.
	if flat, hier := measure(16, 8000, false), measure(16, 8000, true); hier >= flat {
		t.Errorf("tiny-message regime: hierarchical %v should beat flat %v", hier, flat)
	}
	// Bulk pieces, free messages: flat wins.
	if flat, hier := measure(2000, 0, false), measure(2000, 0, true); flat >= hier {
		t.Errorf("bulk regime: flat %v should beat hierarchical %v", flat, hier)
	}
}

// Property: the hierarchical exchange transposes exactly on random
// trees.
func TestPropertyTotalExchangeHier(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 3, 3)
		p := tr.NProcs()
		okAll := true
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			out := make(map[int][]byte, p)
			for dst := 0; dst < p; dst++ {
				out[dst] = []byte{byte(c.Pid()), byte(dst)}
			}
			in, err := TotalExchangeHier(c, out)
			if err != nil {
				return err
			}
			for src := 0; src < p; src++ {
				if !bytes.Equal(in[src], []byte{byte(src), byte(c.Pid())}) {
					okAll = false
				}
			}
			return nil
		})
		return err == nil && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPackEnvelopesIsTheNestedFraming pins the hierarchical exchange's
// wire bytes: packing each envelope once, straight into the outgoing
// frame, gives exactly the nested framed encoding — src, then a byte
// field holding dst and the data — so the bytes on the wire and every
// schedule fingerprint stay what they were.
func TestPackEnvelopesIsTheNestedFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE7E))
	for it := 0; it < 300; it++ {
		es := make([]envelope, rng.Intn(5))
		nested := newFrame()
		for i := range es {
			data := make([]byte, rng.Intn(3)*rng.Intn(300)) // a third or more empty
			rng.Read(data)
			es[i] = envelope{src: rng.Intn(1 << 20), dst: rng.Intn(1 << 20), data: data}
			inner := newFrame()
			inner.add(es[i].dst, data)
			nested.add(es[i].src, inner.bytes())
		}
		got, want := packEnvelopes(es), nested.bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d envelopes: packed %x, nested framing %x", len(es), got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%d envelopes: %d bytes in an array of %d", len(es), len(got), cap(got))
		}
	}
}

// The allocation ceilings of one collective on the benchmark's tree (two
// clusters of two), each at its share of the coll_tcp round's 64 KiB:
// each bound is the result and send-payload bytes its comment names, at
// the size class the allocator rounds each to, plus allocSlack for the
// bookkeeping. On Virtual, which hands a receiver the sender's bytes, so
// delivery adds nothing.
const allocSlack = 16 << 10

// bytesPerRound runs round warm twice and then rounds times on
// WideAreaGrid(2,2,4,10,100) on Virtual, and returns the bytes allocated
// per measured round.
func bytesPerRound(t *testing.T, rounds int, round func(c hbsp.Ctx) error) uint64 {
	t.Helper()
	tr := model.WideAreaGrid(2, 2, 4, 10, 100)
	var before, after runtime.MemStats
	// mark reads the counters while every other processor is parked
	// between the two barriers.
	mark := func(c hbsp.Ctx, m *runtime.MemStats) error {
		if err := hbsp.SyncAll(c, "mark"); err != nil {
			return err
		}
		if c.Pid() == 0 {
			runtime.ReadMemStats(m)
		}
		return hbsp.SyncAll(c, "marked")
	}
	runPure(t, tr, func(c hbsp.Ctx) error {
		for r := -2; r < rounds; r++ {
			if r == 0 {
				if err := mark(c, &before); err != nil {
					return err
				}
			}
			if err := round(c); err != nil {
				return err
			}
		}
		return mark(c, &after)
	})
	return (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
}

// TestBcastHierAllocatesItsResultOnce: the pieces are joined in an array
// sized from their lengths, so each reassembly costs its result and
// nothing more, and a coordinator never reassembles what it scattered.
// Three happen per round, p − 1: the other cluster's coordinator once
// among the coordinators, each of the two other members once inside its
// cluster. The root returns the caller's data. Six happened while every
// coordinator also rebuilt its own scatter; grown from nil by append a
// reassembly cost half as much again.
func TestBcastHierAllocatesItsResultOnce(t *testing.T) {
	const n, reassemblies = 64 << 10, 3
	data := payloadFor(0, n)
	perRound := bytesPerRound(t, 16, func(c hbsp.Ctx) error {
		var in []byte
		if c.Self() == c.Tree().FastestLeaf() {
			in = data
		}
		out, err := BcastHier(c, in, true)
		if err == nil && !bytes.Equal(out, data) {
			err = fmt.Errorf("pid %d: broadcast corrupted", c.Pid())
		}
		return err
	})
	t.Logf("%d bytes allocated per %d-byte BcastHier", perRound, n)
	if perRound > reassemblies*n+allocSlack {
		t.Errorf("%d bytes allocated per round, want at most %d results of %d bytes plus %d",
			perRound, reassemblies, n, allocSlack)
	}
}

// TestAllReduceAllocatesItsResultOnce: each processor contributes 16 KiB,
// 2048 elements. Twelve vectors are allocated per round. Sends, packed
// (16 389 bytes, the allocator's 18 KiB class): the three partials that
// climb, two inside the clusters and one between them, and the root's
// result. Results: the other coordinator's copy of the broadcast and the
// two members' reassemblies, each of the packed size; the two cluster
// coordinators' copies of local they fold into, and the decodes of the
// three processors that did not fold the result, each 16 KiB. The root
// returns its own fold. Decoding each partial before folding it, and
// copying local on every processor, allocated 354 797 bytes a round.
func TestAllReduceAllocatesItsResultOnce(t *testing.T) {
	const width, packed, plain = 2048, 7, 5
	local := make([]int64, width)
	for i := range local {
		local[i] = int64(i)
	}
	perRound := bytesPerRound(t, 16, func(c hbsp.Ctx) error {
		out, err := AllReduce(c, local, Sum)
		if err == nil && (len(out) != width || out[width-1] != 4*(width-1)) {
			err = fmt.Errorf("pid %d: all-reduce corrupted", c.Pid())
		}
		return err
	})
	t.Logf("%d bytes allocated per AllReduce of %d-element vectors", perRound, width)
	const bound = packed*18<<10 + plain*16<<10 + allocSlack
	if perRound > bound {
		t.Errorf("%d bytes allocated per round, want at most %d: %d packed and %d plain vectors plus %d",
			perRound, bound, packed, plain, allocSlack)
	}
}

// TestTotalExchangeHierAllocatesItsResultOnce: 4 KiB a pair. Sends:
// sixteen envelopes, each packed once, straight into the frame that
// carries it. Level 1 sends four one-envelope frames inside the clusters
// (4 116 bytes, the allocator's 4 864 class) and two two-envelope frames
// climbing; level 2 sends four two-envelope frames between the clusters
// (8 232 bytes, the 9 472 class). Results: the twelve pieces that arrive,
// copied once each. A coordinator forwards the pieces that climbed to it
// without a copy, and keeps its own. Packing an inner frame first and
// cloning every delivered frame whole allocated 243 908 bytes a round.
func TestTotalExchangeHierAllocatesItsResultOnce(t *testing.T) {
	const p, piece = 4, 4 << 10
	const bound = 4*4864 + 6*9472 + 12*piece + allocSlack
	outgoing := make([]map[int][]byte, p)
	for src := range outgoing {
		outgoing[src] = make(map[int][]byte, p)
		for dst := 0; dst < p; dst++ {
			outgoing[src][dst] = payloadFor(src*p+dst, piece)
		}
	}
	perRound := bytesPerRound(t, 16, func(c hbsp.Ctx) error {
		in, err := TotalExchangeHier(c, outgoing[c.Pid()])
		for src := 0; err == nil && src < p; src++ {
			if !bytes.Equal(in[src], outgoing[src][c.Pid()]) {
				err = fmt.Errorf("pid %d: piece from %d corrupted", c.Pid(), src)
			}
		}
		return err
	})
	t.Logf("%d bytes allocated per TotalExchangeHier of %d-byte pieces", perRound, piece)
	if perRound > bound {
		t.Errorf("%d bytes allocated per round, want at most %d: ten frames and twelve pieces of %d bytes plus %d",
			perRound, bound, piece, allocSlack)
	}
}
