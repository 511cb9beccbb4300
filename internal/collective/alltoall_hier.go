package collective

import (
	"bytes"
	"fmt"
	"slices"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
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
	defer span(c, "total-exchange-hier")(mapBytes(outgoing))
	t := c.Tree()
	incoming := map[int][]byte{}

	type envelope struct {
		src, dst int
		data     []byte
	}
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
	packEnvelopes := func(es []envelope) []byte {
		f := newFrame()
		for _, e := range es {
			inner := newFrame()
			inner.add(e.dst, e.data)
			f.add(e.src, inner.bytes())
		}
		return f.bytes()
	}
	parseEnvelopes := func(wire []byte) ([]envelope, error) {
		var out []envelope
		var perr error
		err := eachPiece(wire, func(src int, innerWire []byte) {
			if e := eachPiece(innerWire, func(dst int, data []byte) {
				out = append(out, envelope{src: src, dst: dst, data: data})
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
		// for the next level).
		byDst := map[int][]envelope{}
		var climbing, keep []envelope
		for _, e := range carrying {
			switch {
			case inSubtree(scope, e.dst):
				byDst[e.dst] = append(byDst[e.dst], e)
			case c.Pid() != rootPid:
				climbing = append(climbing, e)
			default:
				keep = append(keep, e)
			}
		}
		carrying = keep
		for _, g := range sortedEnvelopeGroups(byDst) {
			if err := c.Send(g.pid, tagXHier, packEnvelopes(g.envs)); err != nil {
				return nil, err
			}
		}
		if len(climbing) > 0 {
			if err := c.Send(rootPid, tagXHier, packEnvelopes(climbing)); err != nil {
				return nil, err
			}
		}
		if err := c.Sync(scope, fmt.Sprintf("x-hier^%d", lvl)); err != nil {
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
			es, err := parseEnvelopes(bytes.Clone(m.Payload))
			if err != nil {
				return nil, err
			}
			for _, e := range es {
				if e.dst == c.Pid() {
					incoming[e.src] = e.data
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

// sortedEnvelopeGroups orders per-destination groups by pid so sends are
// deterministic.
func sortedEnvelopeGroups[E any](m map[int][]E) []struct {
	pid  int
	envs []E
} {
	out := make([]struct {
		pid  int
		envs []E
	}, 0, len(m))
	for pid, envs := range m {
		out = append(out, struct {
			pid  int
			envs []E
		}{pid, envs})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].pid > out[j].pid; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
