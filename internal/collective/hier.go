package collective

import (
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

const (
	tagScanUp   = 8
	tagScanDown = 9
)

// AllGatherHier leaves every processor with every processor's piece,
// keyed by pid, using the hierarchy twice: a hierarchical gather to the
// machine's fastest processor followed by a hierarchical broadcast of
// the combined frame. On machines with slow upper links this moves each
// piece across every slow link O(1) times, where the flat all-gather
// crosses them O(p) times.
func AllGatherHier(c hbsp.Ctx, local []byte) (map[int][]byte, error) {
	defer hbsp.Span(c, "all-gather-hier")(len(local))
	collected, err := GatherHier(c, local)
	if err != nil {
		return nil, err
	}
	var wire []byte
	if collected != nil {
		f := newFrame()
		for _, pp := range sortedPieces(collected) {
			f.add(pp.pid, pp.data)
		}
		wire = f.bytes()
	}
	full, err := BcastHier(c, wire, false)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]byte, c.NProcs())
	if err := eachPiece(full, func(pid int, piece []byte) {
		out[pid] = piece
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanHier computes the inclusive prefix reduction over the tree's
// depth-first machine order — which equals pid order on a freshly
// built tree, but follows the layout after a reorganization permutes
// leaf slots (a hierarchical sweep cannot order by pid once subtrees
// hold non-contiguous pid sets; callers needing strict pid order use
// the flat Scan). The algorithm is two hierarchical sweeps: an upward
// sweep in which every cluster coordinator folds its children's subtree
// totals, which arrive as bare vectors named by their sender, and a
// downward sweep in which each coordinator runs the prefix across its
// children: a cluster child gets the fold of everything left of it, its
// offset, and a leaf child its own inclusive prefix, its result. No
// identity element is required: the tree's first subtree is sent
// nothing. Every processor returns its prefix.
func ScanHier(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "scan-hier")(8 * len(local))
	t := c.Tree()
	// Upward sweep: total is the subtree total this processor carries;
	// childTotals keeps, per level, the totals of the scope's children
	// in child order (only at coordinators), for the downward sweep.
	total := local
	childTotals := make(map[int][][]int64)
	for lvl := 1; lvl <= t.K(); lvl++ {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		coords := childCoords(t, scope)
		if indexOf(coords, c.Pid()) >= 0 && c.Pid() != rootPid {
			if err := c.Send(rootPid, tagScanUp, packVec(total)); err != nil {
				return nil, err
			}
		}
		if err := c.Sync(scope, scanUpLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() == rootPid {
			parts := make([][]int64, len(coords))
			parts[indexOf(coords, rootPid)] = total
			for _, m := range c.Moves() {
				if i := indexOf(coords, m.Src); m.Tag == tagScanUp && i >= 0 {
					v, err := unpackVec(m.Payload)
					if err != nil {
						return nil, err
					}
					parts[i] = v
				}
			}
			childTotals[lvl] = parts
			// Fold children totals in child order into the new subtree
			// total.
			acc := append([]int64(nil), parts[0]...)
			for _, part := range parts[1:] {
				if err := op.combine(c, acc, part); err != nil {
					return nil, err
				}
			}
			total = acc
		}
	}

	// Downward sweep: offset is the fold of everything left of this
	// processor's current subtree, nil when nothing is; out is its
	// result, its own vector until a prefix replaces it.
	var offset []int64
	out := local
	for lvl := t.K(); lvl >= 1; lvl-- {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		coords := childCoords(t, scope)
		if c.Pid() == rootPid {
			// run is the fold of everything left of the next child, nil
			// while nothing is.
			run := offset
			for i, child := range scope.Children {
				left := run
				if left == nil {
					run = childTotals[lvl][i]
				} else {
					run = append([]int64(nil), left...)
					if err := op.combine(c, run, childTotals[lvl][i]); err != nil {
						return nil, err
					}
				}
				// A cluster child gets its offset, a leaf child its own
				// inclusive prefix.
				prefix := left
				if child.IsLeaf() {
					prefix = run
				}
				switch {
				case coords[i] != rootPid:
					if left != nil {
						if err := c.Send(coords[i], tagScanDown, packVec(prefix)); err != nil {
							return nil, err
						}
					}
				case child.IsLeaf():
					out = prefix
				default:
					offset = prefix
				}
			}
		}
		if err := c.Sync(scope, scanDownLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() != rootPid {
			for _, m := range c.Moves() {
				if m.Tag != tagScanDown {
					continue
				}
				v, err := unpackVec(m.Payload)
				if err != nil {
					return nil, err
				}
				if c.Self().Parent() == scope {
					out = v
				} else {
					offset = v
				}
			}
		}
	}
	return append([]int64(nil), out...), nil
}

// ReduceScatter folds every processor's vector element-wise and leaves
// processor with participant index i holding segment i of the result
// (segment boundaries from d, one entry per participant, summing to the
// vector length). One superstep: each processor ships segment j of its
// own vector to participant j, then folds what it received.
func ReduceScatter(c hbsp.Ctx, scope *model.Machine, local []int64, d Dist, op Op) ([]int64, error) {
	defer hbsp.Span(c, "reduce-scatter")(8 * len(local))
	pids := scope.Pids()
	if len(d) != len(pids) {
		return nil, fmt.Errorf("collective: reduce-scatter dist has %d entries for %d participants", len(d), len(pids))
	}
	if d.Total() != len(local) {
		return nil, fmt.Errorf("collective: reduce-scatter dist covers %d of %d elements", d.Total(), len(local))
	}
	me := indexOf(pids, c.Pid())
	if me < 0 {
		return nil, fmt.Errorf("collective: pid %d outside scope %s", c.Pid(), scope.Label())
	}
	off := 0
	var mine []int64
	for i, pid := range pids {
		seg := local[off : off+d[i]]
		off += d[i]
		if pid == c.Pid() {
			mine = append([]int64(nil), seg...)
			continue
		}
		if err := c.Send(pid, tagReduce, packVec(seg)); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "reduce-scatter"); err != nil {
		return nil, err
	}
	for _, m := range c.Moves() {
		if m.Tag != tagReduce {
			continue
		}
		if err := op.fold(c, mine, m.Payload); err != nil {
			return nil, err
		}
	}
	return mine, nil
}
