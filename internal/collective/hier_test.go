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

// TestBcastHierAllocatesItsResultOnce bounds what a 64 KiB broadcast on
// the benchmark's tree (two clusters of two) allocates: the pieces are
// joined in an array sized from their lengths, so each reassembly costs
// its result and nothing more. Six happen per round — each of the two
// cluster coordinators once among themselves and once inside its
// cluster, each of the two other members once. Grown from nil by append
// a reassembly cost half as much again. On Virtual, which hands a
// receiver the sender's bytes, so delivery adds nothing.
func TestBcastHierAllocatesItsResultOnce(t *testing.T) {
	const n, rounds, reassemblies, slack = 64 << 10, 16, 6, 16 << 10
	tr := model.WideAreaGrid(2, 2, 4, 10, 100)
	root := tr.Pid(tr.FastestLeaf())
	data := payloadFor(root, n)
	var before, after runtime.MemStats
	// mark reads the counters while every other processor is parked
	// between the two barriers.
	mark := func(c hbsp.Ctx, m *runtime.MemStats) error {
		if err := hbsp.SyncAll(c, "mark"); err != nil {
			return err
		}
		if c.Pid() == root {
			runtime.ReadMemStats(m)
		}
		return hbsp.SyncAll(c, "marked")
	}
	runPure(t, tr, func(c hbsp.Ctx) error {
		for round := -2; round < rounds; round++ {
			if round == 0 {
				if err := mark(c, &before); err != nil {
					return err
				}
			}
			var in []byte
			if c.Pid() == root {
				in = data
			}
			out, err := BcastHier(c, in, true)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, data) {
				return fmt.Errorf("pid %d: broadcast corrupted", c.Pid())
			}
		}
		return mark(c, &after)
	})
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes allocated per %d-byte BcastHier", perRound, n)
	if perRound > reassemblies*n+slack {
		t.Errorf("%d bytes allocated per round, want at most %d results of %d bytes plus %d",
			perRound, reassemblies, n, slack)
	}
}
