package collective

import (
	"bytes"
	"fmt"
	"slices"

	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
)

const tagXHier = 11

// TotalExchangeHier is the hierarchical all-to-all personalized
// exchange: a piece climbs through cluster coordinators until the
// current super^i-step's scope covers its destination, then crosses
// directly. Compared with the flat exchange this concentrates the
// expensive cross-cluster traffic on the coordinators — §4.1's "faster
// machines should be involved in the computation more often" — so the
// slow leaves of each cluster pay only one intra-cluster hop while the
// coordinators shoulder the packing and the wide-area messages (with
// message combining or per-message overheads this also collapses p·p
// cross-cluster messages into one bundle per cluster pair).
//
// Every participant supplies outgoing[dst] for each destination pid and
// receives incoming[src] keyed by origin.
func TotalExchangeHier(c hbsp.Ctx, outgoing map[int][]byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "total-exchange-hier")(mapBytes(outgoing))
	t := c.Tree()
	incoming := map[int][]byte{}

	var carrying []envelope
	for _, pp := range sortedPieces(outgoing) {
		if pp.pid == c.Pid() {
			incoming[c.Pid()] = pp.data
			continue
		}
		carrying = append(carrying, envelope{src: c.Pid(), dst: pp.pid, data: pp.data})
	}

	inSubtree := func(scope *model.Machine, pid int) bool {
		for m := t.Leaf(pid); m != nil; m = m.Parent() {
			if m == scope {
				return true
			}
		}
		return false
	}
	// parseEnvelopes aliases every piece to the delivery window.
	parseEnvelopes := func(wire []byte) ([]envelope, error) {
		var out []envelope
		var perr error
		err := eachPiece(wire, func(src int, innerWire []byte) {
			if e := eachPiece(innerWire, func(dst int, data []byte) {
				out = append(out, envelope{src: src, dst: dst, data: data, lent: true})
			}); e != nil {
				perr = e
			}
		})
		if err != nil {
			return nil, err
		}
		return out, perr
	}

	for lvl := 1; lvl <= t.K(); lvl++ {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		// Partition what we carry: deliverable within this scope goes
		// directly to its destination; the rest climbs to the scope
		// coordinator (unless we are the coordinator, which keeps it
		// for the next level). What is sent is packed before this
		// level's Sync, inside its window; what is kept outlives it, so a
		// piece still lent by a delivery is copied.
		byDst := map[int][]envelope{}
		var dsts []int
		var climbing, keep []envelope
		for _, e := range carrying {
			switch {
			case inSubtree(scope, e.dst):
				if byDst[e.dst] == nil {
					dsts = append(dsts, e.dst)
				}
				byDst[e.dst] = append(byDst[e.dst], e)
			case c.Pid() != rootPid:
				climbing = append(climbing, e)
			case e.lent:
				keep = append(keep, envelope{src: e.src, dst: e.dst, data: bytes.Clone(e.data)})
			default:
				keep = append(keep, e)
			}
		}
		carrying = keep
		slices.Sort(dsts) // sends in pid order, so the run is deterministic
		for _, dst := range dsts {
			if err := c.Send(dst, tagXHier, packEnvelopes(c, byDst[dst])); err != nil {
				return nil, err
			}
		}
		if len(climbing) > 0 {
			if err := c.Send(rootPid, tagXHier, packEnvelopes(c, climbing)); err != nil {
				return nil, err
			}
		}
		if err := c.Sync(scope, exchangeHierLabel.at(lvl)); err != nil {
			return nil, err
		}
		// What is still carried is forwarded in this order, so it must not
		// follow arrival: the model delivers by sender, schedule exploration
		// on purpose does not.
		moves := slices.Clone(c.Moves())
		slices.SortStableFunc(moves, func(a, b hbsp.Message) int { return a.Src - b.Src })
		for _, m := range moves {
			if m.Tag != tagXHier {
				continue
			}
			es, err := parseEnvelopes(m.Payload)
			if err != nil {
				return nil, err
			}
			for _, e := range es {
				if e.dst == c.Pid() {
					incoming[e.src] = bytes.Clone(e.data)
				} else {
					carrying = append(carrying, e)
				}
			}
		}
	}
	if len(carrying) > 0 {
		e := carrying[0]
		return nil, fmt.Errorf("collective: envelope %d→%d stranded at %d", e.src, e.dst, c.Pid())
	}
	return incoming, nil
}

// envelope is one piece of TotalExchangeHier in flight. lent marks data
// that aliases a delivery window rather than the caller's bytes or a
// copy.
type envelope struct {
	src, dst int
	data     []byte
	lent     bool
}

// packEnvelopes frames envelopes for one wire message in a single pass,
// at its exact size, into c's send scratch (a nil c: an array of its
// own). The bytes are those of nesting two packFrame encodings — per
// envelope the entry (src, inner frame), whose inner frame is the one
// entry (dst, data) — with each piece copied once, straight into the
// outgoing frame.
func packEnvelopes(c hbsp.Ctx, es []envelope) []byte {
	n := 0
	for _, e := range es {
		n += 2*cost.PieceHeader + len(e.data)
	}
	buf := pvm.Wrap(hbsp.SendScratch(c, n)[:0])
	for _, e := range es {
		buf.PackInt32(int32(e.src)).PackBytesHeader(cost.PieceHeader + len(e.data)).
			PackInt32(int32(e.dst)).PackBytes(e.data)
	}
	return buf.Bytes()
}
