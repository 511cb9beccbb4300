package collective

import (
	"encoding/binary"
	"fmt"

	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

const (
	tagReduce = 6
	tagScan   = 7
)

// Op is an associative, commutative element-wise reduction operator over
// int64 vectors. Cost is the combining cost per element in
// fastest-machine time units, charged to whichever machine combines. A
// fold that depends on delivery order makes Virtual.RunSchedules
// disagree (DESIGN.md §5.3).
type Op struct {
	Name  string
	Apply func(a, b int64) int64
	Cost  float64
}

// Sum, Max and Min are the standard reduction operators. Each charges
// the cost model's per-byte combining cost for an 8-byte element.
var (
	Sum = Op{Name: "sum", Apply: func(a, b int64) int64 { return a + b }, Cost: 8 * cost.OpCost}
	Max = Op{Name: "max", Apply: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}, Cost: 8 * cost.OpCost}
	Min = Op{Name: "min", Apply: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}, Cost: 8 * cost.OpCost}
)

// combine folds src into dst element-wise, charging the combining cost.
func (op Op) combine(c hbsp.Ctx, dst, src []int64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("collective: reduce width mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		dst[i] = op.Apply(dst[i], src[i])
	}
	c.Charge(op.Cost * float64(len(dst)))
	return nil
}

// fold folds a vector packed by packVec into acc element-wise, straight
// from the payload, charging the combining cost like combine.
func (op Op) fold(c hbsp.Ctx, acc []int64, packed []byte) error {
	if len(packed) != 8*len(acc) {
		return fmt.Errorf("collective: reduce width mismatch: %d elements vs %d bytes", len(acc), len(packed))
	}
	for i := range acc {
		acc[i] = op.Apply(acc[i], int64(binary.BigEndian.Uint64(packed[8*i:])))
	}
	c.Charge(op.Cost * float64(len(acc)))
	return nil
}

// packVec encodes a vector as a Send payload: its elements' 8·len
// big-endian bytes and nothing else, since a message carries its own
// length, in an array of its own at its exact size (see framed).
func packVec(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// unpackVec decodes a payload packVec built.
func unpackVec(p []byte) ([]int64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("collective: a %d-byte vector payload is no whole number of elements", len(p))
	}
	v := make([]int64, len(p)/8)
	for i := range v {
		v[i] = int64(binary.BigEndian.Uint64(p[8*i:]))
	}
	return v, nil
}

// Reduce combines every participant's vector at the processor with pid
// root over the scope's subtree, in one super^i-step: all vectors travel
// to the root, which folds them in pid order. Non-roots return nil.
func Reduce(c hbsp.Ctx, scope *model.Machine, root int, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "reduce")(8 * len(local))
	if c.Pid() != root {
		if err := c.Send(root, tagReduce, packVec(local)); err != nil {
			return nil, err
		}
	}
	if err := c.Sync(scope, "reduce"); err != nil {
		return nil, err
	}
	if c.Pid() != root {
		return nil, nil
	}
	acc := append([]int64(nil), local...)
	for _, m := range c.Moves() {
		if m.Tag != tagReduce {
			continue
		}
		if err := op.fold(c, acc, m.Payload); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ReduceHier folds vectors up the tree: each cluster coordinator
// combines its children's partials (sibling clusters concurrently), so
// only one combined vector per cluster crosses each upper link — the
// hierarchical win on slow wide-area networks. The machine's fastest
// processor returns the result; others return nil.
func ReduceHier(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "reduce-hier")(8 * len(local))
	t := c.Tree()
	// acc is the caller's local until this processor first folds, and a
	// copy of it from then on.
	acc, folding := local, false
	carrying := true
	for lvl := 1; lvl <= t.K(); lvl++ {
		scope := enclosingScope(t, c.Self(), lvl)
		if scope == nil {
			continue
		}
		rootPid := t.Pid(scope.Coordinator())
		if c.Pid() != rootPid && carrying {
			if err := c.Send(rootPid, tagReduce, packVec(acc)); err != nil {
				return nil, err
			}
			carrying = false
		}
		if err := c.Sync(scope, reduceLabel.at(lvl)); err != nil {
			return nil, err
		}
		if c.Pid() == rootPid {
			if !folding {
				acc, folding = append([]int64(nil), local...), true
			}
			for _, m := range c.Moves() {
				if m.Tag != tagReduce {
					continue
				}
				if err := op.fold(c, acc, m.Payload); err != nil {
					return nil, err
				}
			}
		}
	}
	if c.Self() != t.FastestLeaf() {
		return nil, nil
	}
	if !folding {
		acc = append([]int64(nil), local...)
	}
	return acc, nil
}

// AllReduce is ReduceHier followed by a hierarchical broadcast of the
// result: every processor returns the combined vector. The fastest
// processor returns the vector it folded, not a decode of what it
// broadcast.
func AllReduce(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "all-reduce")(8 * len(local))
	red, err := ReduceHier(c, local, op)
	if err != nil {
		return nil, err
	}
	var wire []byte
	if red != nil {
		wire = packVec(red)
	}
	out, err := BcastHier(c, wire, false)
	if err != nil {
		return nil, err
	}
	if red != nil {
		return red, nil
	}
	return unpackVec(out)
}

// Scan computes the inclusive prefix reduction over pid order within the
// scope: processor with participant index i ends with the fold of
// participants 0..i. Two super^i-steps: gather at the scope coordinator,
// which computes every prefix (charging (p-1)·width combines), then
// scatter of prefix i to participant i.
func Scan(c hbsp.Ctx, scope *model.Machine, local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(c, "scan")(8 * len(local))
	root := c.Tree().Pid(scope.Coordinator())
	gathered, err := Gather(c, scope, root, packVec(local))
	if err != nil {
		return nil, err
	}
	var pieces map[int][]byte
	if c.Pid() == root {
		pids := scope.Pids()
		pieces = make(map[int][]byte, len(pids))
		var acc []int64
		for _, pid := range pids {
			v, err := unpackVec(gathered[pid])
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = append([]int64(nil), v...)
			} else {
				if err := op.combine(c, acc, v); err != nil {
					return nil, err
				}
			}
			pieces[pid] = packVec(acc)
		}
	}
	out, err := Scatter(c, scope, root, pieces)
	if err != nil {
		return nil, err
	}
	return unpackVec(out)
}
