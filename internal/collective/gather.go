package collective

import (
	"bytes"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

const tagGather = 1

// Gather is the HBSP^1 gather of §4.2, run over the subtree of scope in
// a single super^i-step: every processor sends its local bytes to the
// processor with pid root; the root ends with every piece, keyed by
// origin pid. A processor never sends to itself (§5.2), so the root's
// own piece costs nothing. Non-root processors return nil.
func Gather(c hbsp.Ctx, scope *model.Machine, root int, local []byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "gather")(len(local))
	if c.Pid() != root {
		if err := c.Send(root, tagGather, local); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "gather"); err != nil {
		return nil, err
	}
	if c.Pid() != root {
		return nil, nil
	}
	out := map[int][]byte{root: local}
	for _, m := range c.Moves() {
		if m.Tag == tagGather {
			out[m.Src] = bytes.Clone(m.Payload)
		}
	}
	return out, nil
}

// GatherHier is the hierarchical gather of §4.3 generalized to any k:
// level by level, the coordinator of every cluster collects its
// subtree's pieces (sibling clusters run their super^i-steps
// concurrently), until the machine's fastest processor — the root
// coordinator — holds all pieces. Only that processor returns a non-nil
// map.
func GatherHier(c hbsp.Ctx, local []byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "gather-hier")(len(local))
	t := c.Tree()
	// accumulated holds the pieces this processor carries, lent those
	// aliasing the last window: copied if kept through a Sync or returned.
	accumulated := map[int][]byte{c.Pid(): local}
	var lent []int
	own := func() {
		for _, pid := range lent {
			accumulated[pid] = bytes.Clone(accumulated[pid])
		}
		lent = lent[:0]
	}

	for lvl := 1; lvl <= t.K(); lvl++ {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			// This processor's chain skips the level (a childless
			// machine attached above level lvl-1); it participates in
			// no super^lvl-step this round.
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		if c.Pid() != rootPid && len(accumulated) > 0 {
			if err := c.Send(rootPid, tagGather, packFrame(c, sortedPieces(accumulated))); err != nil {
				return nil, err
			}
			accumulated, lent = map[int][]byte{}, lent[:0]
		}
		own()
		if err := c.Sync(scope, gatherLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() == rootPid {
			for _, m := range c.Moves() {
				if m.Tag != tagGather {
					continue
				}
				if err := eachPiece(m.Payload, func(pid int, piece []byte) {
					accumulated[pid] = piece
					lent = append(lent, pid)
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if c.Self() == t.FastestLeaf() {
		own()
		return accumulated, nil
	}
	return nil, nil
}

// enclosingScope returns the ancestor cluster of the leaf whose level is
// exactly lvl, or nil when the chain skips it.
func enclosingScope(t *model.Tree, leaf *model.Machine, lvl int) *model.Machine {
	m := t.ScopeAt(leaf, lvl)
	if m == nil || m.IsLeaf() {
		return nil
	}
	return m
}

// childCoords returns the pids of the coordinators of scope's children,
// in child order.
func childCoords(t *model.Tree, scope *model.Machine) []int {
	coords := make([]int, len(scope.Children))
	for i, child := range scope.Children {
		coords[i] = t.Pid(child.Coordinator())
	}
	return coords
}

type pidPiece struct {
	pid  int
	data []byte
}

// mapBytes sums the payload sizes of a keyed piece map (span sizing).
func mapBytes(m map[int][]byte) int {
	n := 0
	for _, b := range m {
		n += len(b)
	}
	return n
}

// sortedPieces returns map entries in pid order for deterministic wire
// layout.
func sortedPieces(m map[int][]byte) []pidPiece {
	out := make([]pidPiece, 0, len(m))
	for pid, d := range m {
		out = append(out, pidPiece{pid, d})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].pid > out[j].pid; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
