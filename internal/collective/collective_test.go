package collective

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

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
	// A frame kept past its Sync (a nil Ctx) and a packed vector are one
	// exact allocation each, nothing drawn from the wire arena, and the
	// bytes a piece-by-piece packing gives; a vector decodes from any cut
	// of its bytes into pieces, an element straddling two or more.
	want := map[int][]byte{4: payloadFor(4, 300), 0: {}, 9: payloadFor(9, 1)}
	wire := packFrame(nil, []pidPiece{{4, want[4]}, {0, want[0]}, {9, want[9]}})
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
	if len(packFrame(nil, nil)) != 0 {
		t.Error("an empty frame is not empty")
	}
	vec := packVec(nil, []int64{3, -1, 1 << 40})
	if back, err := unpackVec(vec); err != nil || len(back) != 3 || back[2] != 1<<40 || len(vec) != cap(vec) {
		t.Errorf("packed vector: %v, %d bytes in an array of %d, decodes to %v", err, len(vec), cap(vec), back)
	}
	for _, cuts := range [][]int{{0, 24}, {3, 24}, {8, 8, 16}, {1, 2, 4, 9, 17, 23}, {0, 5, 5, 24}} {
		var pieces [][]byte
		for i, at := range cuts {
			from := 0
			if i > 0 {
				from = cuts[i-1]
			}
			pieces = append(pieces, vec[from:at])
		}
		pieces = append(pieces, vec[cuts[len(cuts)-1]:])
		if back, err := unpackVec(pieces...); err != nil || !slices.Equal(back, []int64{3, -1, 1 << 40}) {
			t.Errorf("vector cut at %v decodes to %v, %v", cuts, back, err)
		}
	}
	if _, err := unpackVec(vec[:5], vec[6:]); err == nil {
		t.Error("23 bytes decode as a vector")
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

// TestBcastTwoPhaseEveryoneHasData runs the two-phase broadcast on the
// first-phase cuts no row prices: equal pieces, given and by default.
// The balanced cut is the BcastTwoPhase row.
func TestBcastTwoPhaseEveryoneHasData(t *testing.T) {
	for _, policy := range []string{"equal", "nil"} {
		tr := model.UCFTestbed()
		root := tr.Pid(tr.FastestLeaf())
		data := payloadFor(7, 12345)
		results := make([][]byte, tr.NProcs())
		runPure(t, tr, func(c hbsp.Ctx) error {
			var in []byte
			var d Dist
			if c.Pid() == root {
				in = data
				if policy == "equal" {
					d = EqualPieces(c, c.Tree().Root, len(data))
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
