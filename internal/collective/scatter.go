package collective

import (
	"bytes"
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Scatter is the inverse of Gather over the scope's subtree: the
// processor with pid root holds one piece per participant (keyed by
// pid) and delivers each in a single super^i-step. Every participant
// returns its own piece.
func Scatter(c hbsp.Ctx, scope *model.Machine, root int, pieces map[int][]byte) ([]byte, error) {
	defer hbsp.Span(c, "scatter")(mapBytes(pieces))
	var mine []byte
	if c.Pid() == root {
		for _, pp := range sortedPieces(pieces) {
			if pp.pid == root {
				mine = pp.data
				continue
			}
			if err := c.Send(pp.pid, tagScatter, pp.data); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Sync(scope, "scatter"); err != nil {
		return nil, err
	}
	if c.Pid() == root {
		return mine, nil
	}
	for _, m := range c.Moves() {
		if m.Tag == tagScatter && m.Src == root {
			return bytes.Clone(m.Payload), nil
		}
	}
	return nil, fmt.Errorf("collective: processor %d received no scatter piece", c.Pid())
}

// ScatterHier distributes per-leaf pieces from the machine's fastest
// processor down the tree, level by level: each scope coordinator
// forwards to every child coordinator the pieces destined for that
// child's subtree. Only the fastest processor may supply pieces; every
// processor returns its own piece.
func ScatterHier(c hbsp.Ctx, pieces map[int][]byte) ([]byte, error) {
	defer hbsp.Span(c, "scatter-hier")(mapBytes(pieces))
	t := c.Tree()
	if t.K() == 0 {
		return pieces[c.Pid()], nil
	}
	var carrying map[int][]byte
	if c.Self() == t.FastestLeaf() {
		carrying = pieces
	}
	for lvl := t.K(); lvl >= 1; lvl-- {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		if c.Pid() == rootPid {
			for _, child := range scope.Children {
				dst := t.Pid(child.Coordinator())
				if dst == rootPid {
					continue
				}
				var entries []pidPiece
				for _, l := range child.Leaves() {
					pid := t.Pid(l)
					if piece, ok := carrying[pid]; ok {
						entries = append(entries, pidPiece{pid, piece})
						delete(carrying, pid)
					}
				}
				if err := c.Send(dst, tagScatter, packFrame(c, entries)); err != nil {
					return nil, err
				}
			}
		}
		if err := c.Sync(scope, scatterLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() != rootPid {
			for _, m := range c.Moves() {
				if m.Tag != tagScatter {
					continue
				}
				if carrying == nil {
					carrying = map[int][]byte{}
				}
				if err := eachPiece(bytes.Clone(m.Payload), func(pid int, piece []byte) {
					carrying[pid] = piece
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	return carrying[c.Pid()], nil
}

// AllGather runs over the scope's subtree in one super^i-step: every
// participant sends its local bytes to every other, and each returns the
// full set keyed by origin pid (the second phase of the two-phase
// broadcast, with arbitrary piece sizes).
func AllGather(c hbsp.Ctx, scope *model.Machine, local []byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "all-gather")(len(local))
	pids := scope.Pids()
	for _, pid := range pids {
		if pid == c.Pid() {
			continue
		}
		if err := c.Send(pid, tagExchange, local); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "allgather"); err != nil {
		return nil, err
	}
	out := map[int][]byte{c.Pid(): local}
	for _, m := range c.Moves() {
		if m.Tag == tagExchange {
			out[m.Src] = bytes.Clone(m.Payload)
		}
	}
	return out, nil
}

// TotalExchange is the all-to-all personalized exchange over the scope's
// subtree: every participant holds one piece per destination pid and
// receives one piece per origin pid, in one super^i-step.
func TotalExchange(c hbsp.Ctx, scope *model.Machine, outgoing map[int][]byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "total-exchange")(mapBytes(outgoing))
	for _, pp := range sortedPieces(outgoing) {
		if pp.pid == c.Pid() {
			continue
		}
		if err := c.Send(pp.pid, tagExchange, pp.data); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "total-exchange"); err != nil {
		return nil, err
	}
	in := map[int][]byte{}
	if own, ok := outgoing[c.Pid()]; ok {
		in[c.Pid()] = own
	}
	for _, m := range c.Moves() {
		if m.Tag == tagExchange {
			in[m.Src] = bytes.Clone(m.Payload)
		}
	}
	return in, nil
}
