// Package collective implements the paper's collective communication
// algorithms (§4) as HBSPlib programs: gather and one-to-all broadcast
// in their HBSP^1 (flat) and hierarchical forms, plus the wider suite
// described in the companion thesis — scatter, all-gather, reduce,
// all-reduce, scan, and total exchange.
//
// All operations are SPMD: every processor of the operation's scope
// calls the same function with its local data; results land on the
// processors the operation defines (the root for gather/reduce, everyone
// for broadcast/all-gather/...). The two design principles of §4.1 are
// baked in: coordinators are the fastest machines of their subtrees, and
// balanced variants move data in proportion to the c_{i,j} shares.
//
// Results own their bytes, and a collective allocates little else. A
// delivered payload is valid only through the Sync after the one that
// delivered it (hbsp.Ctx.Moves), so the bytes that outlive their window —
// a result, a piece kept through a Sync — are copied once, where built:
// bytes.Clone, or bytes.Join of the pieces. A scope's coordinator never
// reassembles what it scattered, a reduction folds a delivered vector
// and a broadcast one is decoded straight from the delivered bytes, and
// a piece forwarded at the next level aliases its window for that one
// Sync. A frame or vector that is only sent is packed into send scratch
// (hbsp.SendScratch), which the engine takes back; one kept is an array
// of its own.
package collective

import (
	"fmt"

	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
)

// indexOf returns the participant index of pid, or -1: its position in
// the scope's pid-ordered member list (model.Machine.Pids — pid order,
// not tree order, which a barrier-time reorganization permutes while
// pids stay put).
func indexOf(pids []int, pid int) int {
	for i, p := range pids {
		if p == pid {
			return i
		}
	}
	return -1
}

// levelLabel is the Sync label of one step of a hierarchical collective,
// a format with the level as its one verb. Its text at the levels a tree
// usually has is built once, so that a Sync does not format its label;
// deeper levels are formatted when asked for.
type levelLabel struct {
	format string
	texts  []string
}

// labelLevels is how many levels, from 0, a levelLabel builds ahead.
const labelLevels = 8

func newLevelLabel(format string) levelLabel {
	l := levelLabel{format: format, texts: make([]string, labelLevels)}
	for lvl := range l.texts {
		l.texts[lvl] = fmt.Sprintf(format, lvl)
	}
	return l
}

// at returns the label at level lvl.
func (l levelLabel) at(lvl int) string {
	if lvl >= 0 && lvl < len(l.texts) {
		return l.texts[lvl]
	}
	return fmt.Sprintf(l.format, lvl)
}

var (
	bcastOnePhaseLabel = newLevelLabel("bcast^%d-1p")
	bcastScatterLabel  = newLevelLabel("bcast^%d scatter")
	bcastExchangeLabel = newLevelLabel("bcast^%d exchange")
	gatherLabel        = newLevelLabel("gather^%d")
	reduceLabel        = newLevelLabel("reduce^%d")
	exchangeHierLabel  = newLevelLabel("x-hier^%d")
	scatterLabel       = newLevelLabel("scatter^%d")
	scanUpLabel        = newLevelLabel("scan-up^%d")
	scanDownLabel      = newLevelLabel("scan-down^%d")
)

// packFrame packs (origin pid, piece) entries into one wire message,
// using the pvm typed buffer as the frame format, once, at its exact
// size: into c's send scratch (hbsp.SendScratch) when the frame is only
// sent, and into an array of its own for a nil c, when it is kept.
func packFrame(c hbsp.Ctx, entries []pidPiece) []byte {
	n := 0
	for _, e := range entries {
		n += cost.PieceHeader + len(e.data)
	}
	buf := pvm.Wrap(hbsp.SendScratch(c, n)[:0])
	for _, e := range entries {
		buf.PackInt32(int32(e.pid)).PackBytes(e.data)
	}
	return buf.Bytes()
}

// eachPiece parses a frame built by packFrame, calling fn per entry.
// Pieces alias the payload.
func eachPiece(payload []byte, fn func(pid int, piece []byte)) error {
	buf := pvm.Wrap(payload)
	for buf.Remaining() > 0 {
		pid, err := buf.UnpackInt32()
		if err != nil {
			return fmt.Errorf("collective: corrupt frame: %w", err)
		}
		piece, err := buf.UnpackBytes()
		if err != nil {
			return fmt.Errorf("collective: corrupt frame: %w", err)
		}
		fn(int(pid), piece)
	}
	return nil
}

// Dist describes per-participant piece sizes for the two-phase
// broadcast's first phase. EqualPieces and BalancedPieces construct the
// §5.1 policies.
type Dist []int

// EqualPieces splits n bytes evenly over the participants of the scope
// (c_j = 1/p), leftovers to the lowest indexes.
func EqualPieces(c hbsp.Ctx, scope *model.Machine, n int) Dist {
	return equalCut(n, len(scope.Leaves()))
}

// equalCut splits n into p pieces as evenly as possible, the first
// n mod p of them one longer.
func equalCut(n, p int) Dist {
	d := make(Dist, p)
	q, r := n/p, n%p
	for i := range d {
		d[i] = q
		if i < r {
			d[i]++
		}
	}
	return d
}

// BalancedPieces splits n proportionally to the participants' c_{i,j}
// shares, renormalized within the scope; the rounding residue goes to
// the scope coordinator.
func BalancedPieces(c hbsp.Ctx, scope *model.Machine, n int) Dist {
	leaves := scope.Leaves()
	total := 0.0
	for _, l := range leaves {
		total += l.Share
	}
	d := make(Dist, len(leaves))
	assigned := 0
	for i, l := range leaves {
		d[i] = int(float64(n) * l.Share / total)
		assigned += d[i]
	}
	if rest := n - assigned; rest > 0 {
		co := scope.Coordinator()
		for i, l := range leaves {
			if l == co {
				d[i] += rest
				break
			}
		}
	}
	return d
}

// Total returns the distribution's byte sum.
func (d Dist) Total() int {
	n := 0
	for _, v := range d {
		n += v
	}
	return n
}

// cut slices data into len(d) pieces with sizes d. It panics if the
// sizes exceed the data; callers construct d from len(data).
func (d Dist) cut(data []byte) [][]byte {
	out := make([][]byte, len(d))
	off := 0
	for i, n := range d {
		out[i] = data[off : off+n]
		off += n
	}
	return out
}
