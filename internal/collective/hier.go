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
// sweep in which every cluster
// coordinator folds its children's subtree totals (keeping the partial
// prefixes), and a downward sweep distributing each subtree's inbound
// offset. No identity element is required: the first subtree simply
// receives no offset. Every processor returns its prefix.
func ScanHier(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "scan-hier")(8 * len(local))
	t := c.Tree()
	// Upward sweep: totals[lvl] is the subtree total this processor
	// carries as the coordinator of its level-(lvl-1) position; childAgg
	// records, per level, the children totals needed for the downward
	// sweep (only at coordinators).
	total := append([]int64(nil), local...)
	childTotals := make(map[int][][]int64) // level → totals of scope children, child order
	for lvl := 1; lvl <= t.K(); lvl++ {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		// Which child of scope does this processor represent?
		var coords []int
		for _, child := range scope.Children {
			coords = append(coords, t.Pid(child.Coordinator()))
		}
		if me := indexOf(coords, c.Pid()); me >= 0 && c.Pid() != rootPid {
			f := newFrame()
			f.add(me, packVec(total))
			if err := c.Send(rootPid, tagScanUp, f.bytes()); err != nil {
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
				if m.Tag != tagScanUp {
					continue
				}
				var perr error
				if err := eachPiece(m.Payload, func(idx int, piece []byte) {
					v, err := unpackVec(piece)
					if err != nil {
						perr = err
						return
					}
					parts[idx] = v
				}); err != nil {
					return nil, err
				}
				if perr != nil {
					return nil, perr
				}
			}
			childTotals[lvl] = parts
			// Fold children totals in child order into the new subtree
			// total.
			var acc []int64
			for _, part := range parts {
				if part == nil {
					return nil, fmt.Errorf("collective: scan missing a child total at level %d", lvl)
				}
				if acc == nil {
					acc = append([]int64(nil), part...)
				} else if err := op.combine(c, acc, part); err != nil {
					return nil, err
				}
			}
			total = acc
		}
	}

	// Downward sweep: offset is the fold of everything left of this
	// processor's current subtree; nil means "nothing to the left".
	var offset []int64
	haveOffset := false
	for lvl := t.K(); lvl >= 1; lvl-- {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		var coords []int
		for _, child := range scope.Children {
			coords = append(coords, t.Pid(child.Coordinator()))
		}
		if c.Pid() == rootPid {
			parts := childTotals[lvl]
			// Running prefix across children, starting from the
			// inbound offset.
			run := offset
			haveRun := haveOffset
			for i, pid := range coords {
				if pid != rootPid && haveRun {
					f := newFrame()
					f.add(i, packVec(run))
					if err := c.Send(pid, tagScanDown, f.bytes()); err != nil {
						return nil, err
					}
				}
				if i == indexOf(coords, rootPid) {
					// The coordinator's own inbound offset.
					if haveRun {
						offset = append([]int64(nil), run...)
						haveOffset = true
					} else {
						haveOffset = false
						offset = nil
					}
				}
				// Advance the running prefix past child i.
				if !haveRun {
					run = append([]int64(nil), parts[i]...)
					haveRun = true
				} else {
					run = append([]int64(nil), run...)
					if err := op.combine(c, run, parts[i]); err != nil {
						return nil, err
					}
				}
			}
			// Children left of the coordinator received offsets above;
			// but a child with no left-neighbors got none (correct).
			// Children are notified even when the coordinator sits
			// right of them, because the loop sends before advancing.
		}
		if err := c.Sync(scope, scanDownLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() != rootPid {
			for _, m := range c.Moves() {
				if m.Tag != tagScanDown {
					continue
				}
				var perr error
				if err := eachPiece(m.Payload, func(_ int, piece []byte) {
					v, err := unpackVec(piece)
					if err != nil {
						perr = err
						return
					}
					offset = v
					haveOffset = true
				}); err != nil {
					return nil, err
				}
				if perr != nil {
					return nil, perr
				}
			}
		}
	}

	out := append([]int64(nil), local...)
	if haveOffset {
		// result = offset ⊕ local (offset on the left).
		res := append([]int64(nil), offset...)
		if err := op.combine(c, res, out); err != nil {
			return nil, err
		}
		out = res
	}
	return out, nil
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
