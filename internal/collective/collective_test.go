package collective

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// payloadFor builds a distinct, size-controlled payload per pid.
func payloadFor(pid, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(pid*31 + i)
	}
	return b
}

func TestFramesArePackedOnceAtTheirSize(t *testing.T) {
	// A frame and a packed vector are Send payloads the program owns:
	// one exact allocation each, nothing drawn from the wire arena, and
	// the bytes a piece-by-piece packing gives.
	f := newFrame()
	want := map[int][]byte{4: payloadFor(4, 300), 0: {}, 9: payloadFor(9, 1)}
	for _, pid := range []int{4, 0, 9} {
		f.add(pid, want[pid])
	}
	wire := f.bytes()
	if len(wire) != cap(wire) {
		t.Errorf("frame of %d bytes sits in an array of %d", len(wire), cap(wire))
	}
	got := map[int][]byte{}
	if err := eachPiece(wire, func(pid int, piece []byte) { got[pid] = piece }); err != nil {
		t.Fatal(err)
	}
	for pid, piece := range want {
		if p, ok := got[pid]; !ok || !bytes.Equal(p, piece) {
			t.Errorf("piece of pid %d does not round-trip", pid)
		}
	}
	if len(newFrame().bytes()) != 0 {
		t.Error("an empty frame is not empty")
	}
	vec := packVec([]int64{3, -1, 1 << 40})
	if back, err := unpackVec(vec); err != nil || len(back) != 3 || back[2] != 1<<40 || len(vec) != cap(vec) {
		t.Errorf("packed vector: %v, %d bytes in an array of %d, decodes to %v", err, len(vec), cap(vec), back)
	}
}

func TestLevelLabelsFormatTheirLevel(t *testing.T) {
	// A label built ahead reads as its format would print it, and so
	// does one past the table.
	for _, l := range []levelLabel{bcastOnePhaseLabel, bcastScatterLabel, bcastExchangeLabel,
		gatherLabel, reduceLabel, exchangeHierLabel, scatterLabel, scanUpLabel, scanDownLabel} {
		for lvl := 0; lvl < labelLevels+3; lvl++ {
			if got, want := l.at(lvl), fmt.Sprintf(l.format, lvl); got != want {
				t.Errorf("level %d label %q, want %q", lvl, got, want)
			}
		}
	}
}

func runPure(t *testing.T, tr *model.Tree, prog hbsp.Program) *trace.Report {
	t.Helper()
	rep, err := hbsp.RunVirtual(tr, fabric.PureModel(), prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

func TestGatherDeliversEveryPiece(t *testing.T) {
	tr := model.UCFTestbed()
	root := tr.Pid(tr.FastestLeaf())
	var mu sync.Mutex
	var got map[int][]byte
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := Gather(c, c.Tree().Root, root, payloadFor(c.Pid(), 10+c.Pid()))
		if err != nil {
			return err
		}
		if out != nil {
			mu.Lock()
			got = out
			mu.Unlock()
		} else if c.Pid() == root {
			return fmt.Errorf("root got nil")
		}
		return nil
	})
	if len(got) != tr.NProcs() {
		t.Fatalf("root holds %d pieces, want %d", len(got), tr.NProcs())
	}
	for pid := 0; pid < tr.NProcs(); pid++ {
		if !bytes.Equal(got[pid], payloadFor(pid, 10+pid)) {
			t.Errorf("piece %d corrupted", pid)
		}
	}
}

func TestGatherCostMatchesAnalyticModel(t *testing.T) {
	// The virtual engine with a pure fabric must charge exactly what
	// cost.GatherFlat predicts — the model made executable.
	tr := model.UCFTestbed()
	n := 100000
	d := cost.BalancedDist(tr, n)
	root := tr.Pid(tr.FastestLeaf())
	rep := runPure(t, tr, func(c hbsp.Ctx) error {
		_, err := Gather(c, c.Tree().Root, root, payloadFor(c.Pid(), d[c.Pid()]))
		return err
	})
	want := cost.GatherFlat(tr, root, d).Total()
	if math.Abs(rep.Total-want) > 1e-6 {
		t.Errorf("simulated %v != predicted %v", rep.Total, want)
	}
}

func TestGatherHierCollectsAcrossLevels(t *testing.T) {
	for _, tr := range []*model.Tree{
		model.Figure1Cluster(),
		model.WideAreaGrid(3, 3, 10, 100, 1000),
		model.DeepChain(4),
		model.UCFTestbedN(5),
		model.SingleProcessor(),
	} {
		tr := tr
		var mu sync.Mutex
		var got map[int][]byte
		runPure(t, tr, func(c hbsp.Ctx) error {
			out, err := GatherHier(c, payloadFor(c.Pid(), 5+c.Pid()%3))
			if err != nil {
				return err
			}
			if out != nil {
				mu.Lock()
				got = out
				mu.Unlock()
			}
			return nil
		})
		if len(got) != tr.NProcs() {
			t.Fatalf("%s: collected %d pieces, want %d", tr.Root.Name, len(got), tr.NProcs())
		}
		for pid := 0; pid < tr.NProcs(); pid++ {
			if !bytes.Equal(got[pid], payloadFor(pid, 5+pid%3)) {
				t.Errorf("%s: piece %d corrupted", tr.Root.Name, pid)
			}
		}
	}
}

func TestGatherHierCostMatchesAnalyticModel(t *testing.T) {
	tr := model.Figure1Cluster()
	n := 90000
	d := cost.BalancedDist(tr, n)
	rep := runPure(t, tr, func(c hbsp.Ctx) error {
		_, err := GatherHier(c, make([]byte, d[c.Pid()]))
		return err
	})
	want := cost.GatherHier(tr, d).Total()
	// The executable gather frames pieces with a few bytes of header
	// per hop, so allow a small relative tolerance.
	if math.Abs(rep.Total-want)/want > 0.01 {
		t.Errorf("simulated %v vs predicted %v (>1%% drift)", rep.Total, want)
	}
}

func TestBcastOnePhaseEveryoneHasData(t *testing.T) {
	tr := model.UCFTestbedN(6)
	root := tr.Pid(tr.FastestLeaf())
	data := payloadFor(99, 5000)
	results := make([][]byte, tr.NProcs())
	runPure(t, tr, func(c hbsp.Ctx) error {
		in := data
		if c.Pid() != root {
			in = nil
		}
		out, err := BcastOnePhase(c, c.Tree().Root, root, in)
		if err != nil {
			return err
		}
		results[c.Pid()] = out
		return nil
	})
	for pid, r := range results {
		if !bytes.Equal(r, data) {
			t.Errorf("pid %d has wrong data (%d bytes)", pid, len(r))
		}
	}
}

func TestBcastTwoPhaseEveryoneHasData(t *testing.T) {
	for _, policy := range []string{"equal", "balanced", "nil"} {
		tr := model.UCFTestbed()
		root := tr.Pid(tr.FastestLeaf())
		data := payloadFor(7, 12345)
		results := make([][]byte, tr.NProcs())
		runPure(t, tr, func(c hbsp.Ctx) error {
			var in []byte
			var d Dist
			if c.Pid() == root {
				in = data
				switch policy {
				case "equal":
					d = EqualPieces(c, c.Tree().Root, len(data))
				case "balanced":
					d = BalancedPieces(c, c.Tree().Root, len(data))
				}
			}
			out, err := BcastTwoPhase(c, c.Tree().Root, root, in, d)
			if err != nil {
				return err
			}
			results[c.Pid()] = out
			return nil
		})
		for pid, r := range results {
			if !bytes.Equal(r, data) {
				t.Errorf("%s: pid %d wrong data (%d bytes, want %d)", policy, pid, len(r), len(data))
			}
		}
	}
}

func TestBcastTwoPhaseCostMatchesAnalyticModel(t *testing.T) {
	tr := model.UCFTestbed()
	root := tr.Pid(tr.FastestLeaf())
	n := 200000
	rep := runPure(t, tr, func(c hbsp.Ctx) error {
		var in []byte
		if c.Pid() == root {
			in = make([]byte, n)
		}
		_, err := BcastTwoPhase(c, c.Tree().Root, root, in, nil)
		return err
	})
	want := cost.BcastTwoPhaseFlat(tr, root, cost.EqualDist(tr, n)).Total()
	if math.Abs(rep.Total-want)/want > 1e-6 {
		t.Errorf("simulated %v != predicted %v", rep.Total, want)
	}
	if rep.Supersteps() != 2 {
		t.Errorf("two-phase broadcast ran %d supersteps, want 2", rep.Supersteps())
	}
}

// rootExchangeWatch is a Ctx that notes, after every Sync, each
// broadcast exchange piece delivered to the root of the Sync's scope.
type rootExchangeWatch struct {
	hbsp.Ctx
	seen *[]string
}

func (w rootExchangeWatch) Sync(scope *model.Machine, label string) error {
	err := w.Ctx.Sync(scope, label)
	if err == nil && w.Pid() == w.Tree().Pid(scope.Coordinator()) {
		for _, m := range w.Moves() {
			if m.Tag == tagBcastEx {
				*w.seen = append(*w.seen, fmt.Sprintf("%s from pid %d at %s", label, m.Src, scope.Name))
			}
		}
	}
	return err
}

// TestBcastHierAllTrees: every processor ends with the data, and the
// root of a scope is sent none of the pieces it cut in that scope's
// exchange.
func TestBcastHierAllTrees(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *model.Tree
	}{
		{"figure1", model.Figure1Cluster()},
		{"grid", model.WideAreaGrid(3, 4, 15, 100, 2000)},
		{"chain", model.DeepChain(3)},
		{"flat", model.UCFTestbedN(7)},
	} {
		for _, twoPhaseTop := range []bool{false, true} {
			data := payloadFor(3, 7777)
			results := make([][]byte, tc.tr.NProcs())
			seen := make([][]string, tc.tr.NProcs())
			runPure(t, tc.tr, func(c hbsp.Ctx) error {
				var in []byte
				if c.Self() == c.Tree().FastestLeaf() {
					in = data
				}
				out, err := BcastHier(rootExchangeWatch{c, &seen[c.Pid()]}, in, twoPhaseTop)
				if err != nil {
					return err
				}
				results[c.Pid()] = out
				return nil
			})
			for pid, r := range results {
				if !bytes.Equal(r, data) {
					t.Errorf("%s(two-phase-top=%v): pid %d wrong data (%d bytes)",
						tc.name, twoPhaseTop, pid, len(r))
				}
				for _, what := range seen[pid] {
					t.Errorf("%s(two-phase-top=%v): pid %d, a scope's root, was sent a piece: %s",
						tc.name, twoPhaseTop, pid, what)
				}
			}
		}
	}
}

// TestBcastHierMovesWhatItsReceiversLack: on coll_tcp's tree at 64 KiB
// the broadcast moves 192 KiB whether the top is one- or two-phase. A
// two-phase step of two sends the other coordinator the root's two
// 32 KiB pieces, one in each phase, and sends the root nothing: 64 KiB,
// as much as a one-phase step. The top and the two clusters make three
// such steps. Sending each root its piece back as well moved 288 KiB
// with a two-phase top and 256 KiB with a one-phase one.
func TestBcastHierMovesWhatItsReceiversLack(t *testing.T) {
	const n, want = 64 << 10, 196608
	tr := model.WideAreaGrid(2, 2, 4, 10, 100)
	data := payloadFor(0, n)
	for _, twoPhaseTop := range []bool{false, true} {
		rep := runPure(t, tr, func(c hbsp.Ctx) error {
			var in []byte
			if c.Self() == c.Tree().FastestLeaf() {
				in = data
			}
			_, err := BcastHier(c, in, twoPhaseTop)
			return err
		})
		if got := rep.BytesMoved(); got != want {
			t.Errorf("two-phase-top=%v: %d bytes moved, want %d", twoPhaseTop, got, want)
		}
	}
}

func TestScatterRoundTripsWithGather(t *testing.T) {
	tr := model.UCFTestbedN(8)
	root := tr.Pid(tr.FastestLeaf())
	results := make([][]byte, tr.NProcs())
	runPure(t, tr, func(c hbsp.Ctx) error {
		var pieces map[int][]byte
		if c.Pid() == root {
			pieces = make(map[int][]byte)
			for pid := 0; pid < c.NProcs(); pid++ {
				pieces[pid] = payloadFor(pid, 100+pid)
			}
		}
		mine, err := Scatter(c, c.Tree().Root, root, pieces)
		if err != nil {
			return err
		}
		results[c.Pid()] = mine
		return nil
	})
	for pid, r := range results {
		if !bytes.Equal(r, payloadFor(pid, 100+pid)) {
			t.Errorf("pid %d got wrong piece", pid)
		}
	}
}

func TestScatterHierDelivers(t *testing.T) {
	tr := model.Figure1Cluster()
	results := make([][]byte, tr.NProcs())
	runPure(t, tr, func(c hbsp.Ctx) error {
		var pieces map[int][]byte
		if c.Self() == c.Tree().FastestLeaf() {
			pieces = make(map[int][]byte)
			for pid := 0; pid < c.NProcs(); pid++ {
				pieces[pid] = payloadFor(pid, 64)
			}
		}
		mine, err := ScatterHier(c, pieces)
		if err != nil {
			return err
		}
		results[c.Pid()] = mine
		return nil
	})
	for pid, r := range results {
		if !bytes.Equal(r, payloadFor(pid, 64)) {
			t.Errorf("pid %d got wrong piece (%d bytes)", pid, len(r))
		}
	}
}

func TestAllGatherEveryoneHasEverything(t *testing.T) {
	tr := model.UCFTestbedN(6)
	counts := make([]int, tr.NProcs())
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := AllGather(c, c.Tree().Root, payloadFor(c.Pid(), 50))
		if err != nil {
			return err
		}
		for pid := 0; pid < c.NProcs(); pid++ {
			if !bytes.Equal(out[pid], payloadFor(pid, 50)) {
				return fmt.Errorf("pid %d: piece %d wrong", c.Pid(), pid)
			}
		}
		counts[c.Pid()] = len(out)
		return nil
	})
	for pid, n := range counts {
		if n != tr.NProcs() {
			t.Errorf("pid %d holds %d pieces", pid, n)
		}
	}
}

func TestTotalExchangeTransposes(t *testing.T) {
	tr := model.UCFTestbedN(5)
	p := tr.NProcs()
	runPure(t, tr, func(c hbsp.Ctx) error {
		out := make(map[int][]byte, p)
		for dst := 0; dst < p; dst++ {
			out[dst] = []byte{byte(c.Pid()), byte(dst)}
		}
		in, err := TotalExchange(c, c.Tree().Root, out)
		if err != nil {
			return err
		}
		if len(in) != p {
			return fmt.Errorf("pid %d received %d pieces, want %d", c.Pid(), len(in), p)
		}
		for src := 0; src < p; src++ {
			want := []byte{byte(src), byte(c.Pid())}
			if !bytes.Equal(in[src], want) {
				return fmt.Errorf("pid %d: from %d got %v, want %v", c.Pid(), src, in[src], want)
			}
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	tr := model.UCFTestbed()
	root := tr.Pid(tr.FastestLeaf())
	width := 16
	var result []int64
	var mu sync.Mutex
	runPure(t, tr, func(c hbsp.Ctx) error {
		local := make([]int64, width)
		for i := range local {
			local[i] = int64(c.Pid() + i)
		}
		out, err := Reduce(c, c.Tree().Root, root, local, Sum)
		if err != nil {
			return err
		}
		if out != nil {
			mu.Lock()
			result = out
			mu.Unlock()
		}
		return nil
	})
	p := int64(tr.NProcs())
	for i, v := range result {
		want := p*(p-1)/2 + p*int64(i)
		if v != want {
			t.Errorf("sum[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestReduceHierAndAllReduce(t *testing.T) {
	for _, tr := range []*model.Tree{
		model.Figure1Cluster(),
		model.WideAreaGrid(2, 3, 8, 50, 500),
		model.DeepChain(3),
	} {
		tr := tr
		p := int64(tr.NProcs())
		want := p * (p - 1) / 2
		var hierResult []int64
		var mu sync.Mutex
		runPure(t, tr, func(c hbsp.Ctx) error {
			out, err := ReduceHier(c, []int64{int64(c.Pid())}, Sum)
			if err != nil {
				return err
			}
			if out != nil {
				mu.Lock()
				hierResult = out
				mu.Unlock()
			}
			return nil
		})
		if len(hierResult) != 1 || hierResult[0] != want {
			t.Errorf("%s: ReduceHier = %v, want [%d]", tr.Root.Name, hierResult, want)
		}
		all := make([]int64, tr.NProcs())
		runPure(t, tr, func(c hbsp.Ctx) error {
			out, err := AllReduce(c, []int64{int64(c.Pid())}, Sum)
			if err != nil {
				return err
			}
			all[c.Pid()] = out[0]
			return nil
		})
		for pid, v := range all {
			if v != want {
				t.Errorf("%s: AllReduce at pid %d = %d, want %d", tr.Root.Name, pid, v, want)
			}
		}
	}
}

func TestScanPrefixes(t *testing.T) {
	tr := model.UCFTestbedN(7)
	got := make([]int64, tr.NProcs())
	runPure(t, tr, func(c hbsp.Ctx) error {
		out, err := Scan(c, c.Tree().Root, []int64{int64(c.Pid() + 1)}, Sum)
		if err != nil {
			return err
		}
		got[c.Pid()] = out[0]
		return nil
	})
	acc := int64(0)
	for pid, v := range got {
		acc += int64(pid + 1)
		if v != acc {
			t.Errorf("scan[%d] = %d, want %d", pid, v, acc)
		}
	}
}

func TestMaxMinOps(t *testing.T) {
	tr := model.UCFTestbedN(4)
	root := tr.Pid(tr.FastestLeaf())
	for _, tc := range []struct {
		op   Op
		want int64
	}{{Max, 9}, {Min, 0}} {
		var res []int64
		var mu sync.Mutex
		runPure(t, tr, func(c hbsp.Ctx) error {
			out, err := Reduce(c, c.Tree().Root, root, []int64{int64(c.Pid() * 3)}, tc.op)
			if out != nil {
				mu.Lock()
				res = out
				mu.Unlock()
			}
			return err
		})
		if len(res) != 1 || res[0] != tc.want {
			t.Errorf("%s = %v, want [%d]", tc.op.Name, res, tc.want)
		}
	}
}

func TestReduceChargesCombiningWork(t *testing.T) {
	tr := model.UCFTestbedN(4)
	root := tr.Pid(tr.FastestLeaf())
	width := 1000
	rep := runPure(t, tr, func(c hbsp.Ctx) error {
		_, err := Reduce(c, c.Tree().Root, root, make([]int64, width), Sum)
		return err
	})
	// Root combines 3 incoming vectors after the sync: the trailing
	// work extends the total beyond the communication step by
	// ≥ 3·width·Cost (root is the fastest, slowdown 1).
	wantMin := rep.Steps[0].Time + 3*float64(width)*Sum.Cost
	if rep.Total < wantMin {
		t.Errorf("reduce total = %v, want ≥ %v", rep.Total, wantMin)
	}
}

func TestCollectivesOnConcurrentEngineMatchVirtual(t *testing.T) {
	// The same program on both engines must deliver identical data.
	tr := model.Figure1Cluster()
	data := payloadFor(1, 3000)
	run := func(eng func(hbsp.Program) (*trace.Report, error)) [][]byte {
		results := make([][]byte, tr.NProcs())
		_, err := eng(func(c hbsp.Ctx) error {
			var in []byte
			if c.Self() == c.Tree().FastestLeaf() {
				in = data
			}
			out, err := BcastHier(c, in, false)
			if err != nil {
				return err
			}
			sum, err := AllReduce(c, []int64{int64(len(out))}, Sum)
			if err != nil {
				return err
			}
			results[c.Pid()] = append(out, byte(sum[0]%251))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	virt := run(func(p hbsp.Program) (*trace.Report, error) {
		return hbsp.RunVirtual(tr, fabric.PureModel(), p)
	})
	conc := run(hbsp.NewConcurrent(tr).Run)
	for pid := range virt {
		if !bytes.Equal(virt[pid], conc[pid]) {
			t.Errorf("pid %d: engines disagree", pid)
		}
	}
}

// Property: gather on a random tree returns exactly the multiset of
// inputs, keyed by pid, for any seed.
func TestPropertyGatherHierComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 3, 4)
		var mu sync.Mutex
		var got map[int][]byte
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			out, err := GatherHier(c, payloadFor(c.Pid(), 1+rngSize(seed, c.Pid())))
			if out != nil {
				mu.Lock()
				got = out
				mu.Unlock()
			}
			return err
		})
		if err != nil || len(got) != tr.NProcs() {
			return false
		}
		for pid := 0; pid < tr.NProcs(); pid++ {
			if !bytes.Equal(got[pid], payloadFor(pid, 1+rngSize(seed, pid))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// rngSize derives a deterministic per-pid size without sharing a rand
// source across goroutines.
func rngSize(seed int64, pid int) int {
	return int((uint64(seed)*2654435761 + uint64(pid)*40503) % 97)
}

// Property: hierarchical broadcast leaves every leaf with the root's
// exact data on random trees.
func TestPropertyBcastHierComplete(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 3, 3)
		data := payloadFor(5, int(size%4096)+1)
		ok := true
		var mu sync.Mutex
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			var in []byte
			if c.Self() == c.Tree().FastestLeaf() {
				in = data
			}
			out, err := BcastHier(c, in, false)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, data) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: AllReduce(sum) equals the sequential sum on random trees.
func TestPropertyAllReduceSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		p := tr.NProcs()
		want := int64(0)
		for pid := 0; pid < p; pid++ {
			want += int64(rngSize(seed, pid))
		}
		ok := true
		var mu sync.Mutex
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			out, err := AllReduce(c, []int64{int64(rngSize(seed, c.Pid()))}, Sum)
			if err != nil {
				return err
			}
			if out[0] != want {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEqualAndBalancedPiecesCoverN(t *testing.T) {
	tr := model.UCFTestbed()
	runPure(t, tr, func(c hbsp.Ctx) error {
		for _, n := range []int{0, 1, 7, 1000, 99999} {
			if got := EqualPieces(c, c.Tree().Root, n).Total(); got != n {
				return fmt.Errorf("EqualPieces(%d) covers %d", n, got)
			}
			if got := BalancedPieces(c, c.Tree().Root, n).Total(); got != n {
				return fmt.Errorf("BalancedPieces(%d) covers %d", n, got)
			}
		}
		return nil
	})
}
