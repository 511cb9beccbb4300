package collective

import (
	"bytes"
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

const (
	tagBcast    = 2
	tagBcastEx  = 3
	tagScatter  = 4
	tagExchange = 5
)

// BcastOnePhase is the one-phase broadcast of §4.4 over the scope's
// subtree: the processor with pid root sends all of data to every other
// processor in one super^i-step. Every participant returns the data.
func BcastOnePhase(c hbsp.Ctx, scope *model.Machine, root int, data []byte) ([]byte, error) {
	defer hbsp.Span(c, "bcast-one-phase")(len(data))
	pids := scope.Pids()
	if c.Pid() == root {
		for _, pid := range pids {
			if pid == root {
				continue
			}
			if err := c.Send(pid, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Sync(scope, "bcast-1p"); err != nil {
		return nil, err
	}
	if c.Pid() == root {
		return data, nil
	}
	for _, m := range c.Moves() {
		if m.Tag == tagBcast && m.Src == root {
			return bytes.Clone(m.Payload), nil
		}
	}
	return nil, fmt.Errorf("collective: processor %d missed the broadcast", c.Pid())
}

// BcastTwoPhase is the two-phase broadcast of §4.4 over the scope's
// subtree: the root scatters pieces of data (sized by d, one entry per
// participant; nil means equal pieces) in the first super^i-step, and in
// the second every participant sends its piece to every other. Each
// participant but the root returns the reassembled data; the root, which
// never reassembles what it cut, returns data itself. §5.3 notes the
// analysis is unchanged if the first phase distributes c_j·n pieces —
// pass BalancedPieces for that policy.
func BcastTwoPhase(c hbsp.Ctx, scope *model.Machine, root int, data []byte, d Dist) ([]byte, error) {
	defer hbsp.Span(c, "bcast-two-phase")(len(data))
	pids := scope.Pids()
	me := indexOf(pids, c.Pid())
	if me < 0 {
		return nil, fmt.Errorf("collective: pid %d outside scope %s", c.Pid(), scope.Label())
	}
	var n int
	if c.Pid() == root {
		n = len(data)
		if d == nil {
			d = EqualPieces(c, scope, n)
		}
		if d.Total() != n || len(d) != len(pids) {
			return nil, fmt.Errorf("collective: piece distribution %v does not cover %d bytes over %d processors",
				d, n, len(pids))
		}
		pieces := d.cut(data)
		for i, pid := range pids {
			if pid == root {
				continue
			}
			if err := c.Send(pid, tagBcast, pieces[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Sync(scope, "bcast-2p scatter"); err != nil {
		return nil, err
	}

	var mine []byte
	if c.Pid() == root {
		mine = d.cut(data)[me]
	} else {
		for _, m := range c.Moves() {
			if m.Tag == tagBcast && m.Src == root {
				mine = m.Payload
			}
		}
	}
	// Phase 2: total exchange of pieces. Zero-length pieces still
	// reassemble correctly (nothing to send).
	for _, pid := range pids {
		if pid == c.Pid() || len(mine) == 0 {
			continue
		}
		if err := c.Send(pid, tagBcastEx, mine); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "bcast-2p exchange"); err != nil {
		return nil, err
	}
	if c.Pid() == root {
		return data, nil
	}
	pieceBy := map[int][]byte{c.Pid(): mine}
	for _, m := range c.Moves() {
		if m.Tag == tagBcastEx {
			pieceBy[m.Src] = m.Payload
		}
	}
	return joinPieces(pids, pieceBy), nil
}

// joinPieces lays the listed processors' pieces end to end in an array
// sized once from their lengths — by bytes.Join, which does not zero what
// it is about to overwrite; nothing to join is nil.
func joinPieces(pids []int, pieceBy map[int][]byte) []byte {
	pieces := make([][]byte, len(pids))
	n := 0
	for i, pid := range pids {
		pieces[i] = pieceBy[pid]
		n += len(pieces[i])
	}
	if n == 0 {
		return nil
	}
	return bytes.Join(pieces, nil)
}

// BcastHier is the hierarchical broadcast of §4.4 generalized to any k:
// level by level from the top, the data travels from each scope's
// coordinator to the coordinators of its children — one-phase or
// two-phase at the top level per twoPhaseTop, always two-phase inside
// clusters (the paper's intra-cluster choice). A two-phase step's
// exchange sends only what its receivers lack: each coordinator sends its
// piece to every other coordinator but the scope's root, which cut the
// pieces. Only the machine's fastest processor may supply data; every
// processor returns the full data, the fastest one the caller's own
// slice and every other a copy of its own.
func BcastHier(c hbsp.Ctx, data []byte, twoPhaseTop bool) ([]byte, error) {
	defer hbsp.Span(c, "bcast-hier")(len(data))
	t := c.Tree()
	if t.K() == 0 {
		return data, nil
	}
	have := data
	if c.Self() != t.FastestLeaf() {
		have = nil
	}
	for lvl := t.K(); lvl >= 1; lvl-- {
		twoPhase := twoPhaseTop || lvl < t.K()
		// A processor takes part in the level's step when it is the
		// coordinator of a child of a level-lvl scope on its chain, or
		// a direct leaf child of that scope.
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		// The step moves data between the coordinators of scope's
		// children; only those processors exchange, everyone under the
		// scope synchronizes.
		coords := childCoords(t, scope)
		amCoord := indexOf(coords, c.Pid()) >= 0

		if !twoPhase {
			if c.Pid() == rootPid {
				for _, pid := range coords {
					if pid != rootPid {
						if err := c.Send(pid, tagBcast, have); err != nil {
							return nil, err
						}
					}
				}
			}
			if err := c.Sync(scope, bcastOnePhaseLabel.at(lvl)); err != nil {
				return nil, err
			}
			if amCoord && c.Pid() != rootPid {
				for _, m := range c.Moves() {
					if m.Tag == tagBcast && m.Src == rootPid {
						have = bytes.Clone(m.Payload)
					}
				}
			}
			continue
		}

		// Two-phase among the child coordinators.
		var pieces [][]byte
		if c.Pid() == rootPid {
			pieces = equalCut(len(have), len(coords)).cut(have)
			for i, pid := range coords {
				if pid != rootPid {
					if err := c.Send(pid, tagBcast, pieces[i]); err != nil {
						return nil, err
					}
				}
			}
		}
		if err := c.Sync(scope, bcastScatterLabel.at(lvl)); err != nil {
			return nil, err
		}
		var mine []byte
		if c.Pid() == rootPid {
			mine = pieces[indexOf(coords, c.Pid())]
		} else if amCoord {
			for _, msg := range c.Moves() {
				if msg.Tag == tagBcast && msg.Src == rootPid {
					mine = msg.Payload
				}
			}
		}
		// Every coordinator sends its piece to every other but the root,
		// which holds them all already.
		if amCoord {
			for _, pid := range coords {
				if pid == c.Pid() || pid == rootPid || len(mine) == 0 {
					continue
				}
				if err := c.Send(pid, tagBcastEx, mine); err != nil {
					return nil, err
				}
			}
		}
		if err := c.Sync(scope, bcastExchangeLabel.at(lvl)); err != nil {
			return nil, err
		}
		// The scope's root keeps the have it cut; the other coordinators
		// reassemble, the one copy each makes.
		if amCoord && c.Pid() != rootPid {
			pieceBy := map[int][]byte{c.Pid(): mine}
			for _, msg := range c.Moves() {
				if msg.Tag == tagBcastEx {
					pieceBy[msg.Src] = msg.Payload
				}
			}
			have = joinPieces(coords, pieceBy)
		}
	}
	if have == nil {
		return nil, fmt.Errorf("collective: processor %d ended the hierarchical broadcast empty", c.Pid())
	}
	return have, nil
}
