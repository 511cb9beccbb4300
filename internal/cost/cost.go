// Package cost implements the HBSP^k cost model of §3.4: heterogeneous
// h-relations, super^i-step costs T_i(λ) = w_i + g·h + L_{i,j}, and
// closed-form costs for the paper's collective communication algorithms.
//
// The step terms here (Terms) are the single source of truth shared by
// the analytic formulas and both engines, so that "predicted" and
// "simulated" disagree only where the simulation is configured to model
// effects the pure model omits (pack/unpack overheads, noise).
package cost

import (
	"fmt"
	"strings"
	"sync"

	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// Flow is one message of a superstep: Bytes moved from the processor
// with pid Src to the processor with pid Dst. The paper counts packets;
// we count bytes (the unit is irrelevant to the model as long as g is
// expressed per the same unit).
type Flow struct {
	Src, Dst int
	Bytes    int
}

// Step is the cost of one super^i-step: T = w + g·h + L (equation 1).
// A Step may instead aggregate concurrent sub-steps — the super¹-steps
// of the clusters of an HBSP² machine run simultaneously, so "the
// super¹-step cost is the largest time needed for an HBSP¹ cluster to
// finish the operation" (§4.3). Such a Step has Parallel set and its
// Time is the maximum of the sub-step times.
type Step struct {
	// Label names the step in traces ("super1 gather", ...).
	Label string
	// Scope is the step's scope machine M_{i,j}, nil for a parallel
	// step: with the step's ordinal among its scope's steps it is the
	// identity a run's step of the same scope pairs with (obsv.Join).
	Scope *model.Machine
	// Level is i: the level of the step's scope machine.
	Level int
	// Work is w_i, the largest local computation performed by a
	// participant, in time units of the fastest machine.
	Work float64
	// H is the heterogeneous h-relation h = max{r_{i,j} · h_{i,j}}.
	H float64
	// Sync is L_{i,j}, the barrier cost of the step's scope.
	Sync float64
	// Parallel, if non-empty, marks the step as the concurrent
	// execution of the given sub-steps, one per cluster.
	Parallel []Step
}

// Time returns T_i(λ) = w_i + g·h + L_{i,j}, or the maximum sub-step
// time for a parallel step.
func (s Step) Time(g float64) float64 {
	if len(s.Parallel) > 0 {
		t := 0.0
		for _, p := range s.Parallel {
			if pt := p.Time(g); pt > t {
				t = pt
			}
		}
		return t
	}
	return s.Work + g*s.H + s.Sync
}

// ParallelStep aggregates concurrent sub-steps into one Step.
func ParallelStep(label string, level int, subs []Step) Step {
	return Step{Label: label, Level: level, Parallel: subs}
}

// Breakdown is the cost of a whole algorithm: the sum of its super^i-step
// times (§3.4: "The overall cost is the sum of the super^i-step times"),
// and the work after its last barrier.
type Breakdown struct {
	G     float64
	Steps []Step
	// Tail is the local computation after the last step's barrier, in
	// time units of the fastest machine: a fold of operands the last
	// step delivered. No step holds it; the total does.
	Tail float64
}

// Total returns the summed execution time of all steps and the tail.
func (b Breakdown) Total() float64 {
	t := b.Tail
	for _, s := range b.Steps {
		t += s.Time(b.G)
	}
	return t
}

// Add appends a step and returns the breakdown for chaining.
func (b *Breakdown) Add(s Step) *Breakdown {
	b.Steps = append(b.Steps, s)
	return b
}

// String renders the breakdown as an ASCII table.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %5s %12s %12s %12s %12s\n", "step", "level", "w", "g*h", "L", "T")
	for _, s := range b.Steps {
		fmt.Fprintf(&sb, "%-28s %5d %12.4g %12.4g %12.4g %12.4g\n",
			s.Label, s.Level, s.Work, b.G*s.H, s.Sync, s.Time(b.G))
	}
	if b.Tail != 0 {
		fmt.Fprintf(&sb, "%-28s %5s %12.4g %12s %12s %12.4g\n", "after last Sync", "", b.Tail, "", "", b.Tail)
	}
	fmt.Fprintf(&sb, "%-28s %5s %12s %12s %12s %12.4g\n", "total", "", "", "", "", b.Total())
	return sb.String()
}

// entity identifies who a flow endpoint is charged to during a
// super^i-step at the given scope (§3.4, and the per-algorithm analyses
// of §4):
//
//   - the scope's coordinator leaf is charged as the scope machine
//     itself, at the coordinator's own injection slowdown — this is the
//     paper's r_{2,0} = 1 for the root of a super²-step;
//   - any other leaf is charged to the child of the scope that contains
//     it: a whole HBSP^{i-1} cluster during a super^i-step appears as a
//     single machine M_{i-1,j} with slowdown r_{i-1,j};
//   - if both endpoints of a flow fall inside the same child, the flow
//     never crosses the scope's network, and both endpoints are charged
//     at their own leaf slowdowns instead.
//
// key is the charged machine's slot in a tree of n leaves: a leaf charged
// as itself at its pid, a child at n plus its first pid, the scope at 2n.
type entity struct {
	m   *model.Machine // charged machine (nil = not charged at this scope)
	r   float64
	key int
}

// chargeEntities returns the charged entities for one flow; co is the
// scope's coordinator.
func chargeEntities(t *model.Tree, scope, co *model.Machine, f Flow) (src, dst entity) {
	srcLeaf, dstLeaf := t.Leaf(f.Src), t.Leaf(f.Dst)
	if srcLeaf == nil || dstLeaf == nil {
		return entity{}, entity{}
	}
	childOf := func(leaf *model.Machine) *model.Machine {
		for m := leaf; m != nil; m = m.Parent() {
			if m.Parent() == scope {
				return m
			}
			if m == scope {
				return m // leaf is the scope itself (degenerate)
			}
		}
		return nil
	}
	cs, cd := childOf(srcLeaf), childOf(dstLeaf)
	if cs == nil || cd == nil {
		return entity{}, entity{} // flow outside the scope's subtree
	}
	if cs == cd {
		// Intra-child traffic: charge at leaf granularity.
		return entity{srcLeaf, srcLeaf.CommSlowdown, f.Src}, entity{dstLeaf, dstLeaf.CommSlowdown, f.Dst}
	}
	n := t.NProcs()
	ent := func(leaf, child *model.Machine) entity {
		if leaf == co {
			return entity{scope, co.CommSlowdown, 2 * n}
		}
		return entity{child, child.CommSlowdown, n + child.Pids()[0]}
	}
	return ent(srcLeaf, cs), ent(dstLeaf, cd)
}

// tallies holds HRelationRated's scratch: per charged machine, at its
// entity key, the bytes it sends and receives and its r.
var tallies = sync.Pool{New: func() any { return new([]tallied) }}

type tallied struct{ sent, recv, r float64 }

// HRelationRated computes the heterogeneous h-relation of a
// super^i-step at the given scope: h = max over charged machines of
// r_{i,j} · h_{i,j}, where h_{i,j} is the larger of the bytes sent and
// received by machine M_{i,j} (§3.4, Table 1). The rt argument is the
// paper's §6 extension: a RateTable of per-destination factors. A flow
// from entity S to entity D contributes bytes·Factor(S, D) to S's sent
// tally — the sender pays for a harder-to-reach destination — while D's
// receive tally counts raw bytes (drained at D's own r as before). A
// nil table reduces to the plain model. It allocates nothing once its
// pooled tally fits the tree.
func HRelationRated(t *model.Tree, scope *model.Machine, flows []Flow, rt *model.RateTable) float64 {
	if len(flows) == 0 {
		return 0
	}
	n := 2*t.NProcs() + 1
	pooled := tallies.Get().(*[]tallied)
	if len(*pooled) < n {
		*pooled = make([]tallied, n)
	}
	at := (*pooled)[:n]
	co := scope.Coordinator()
	for _, f := range flows {
		if f.Src == f.Dst || f.Bytes <= 0 {
			continue // a processor does not send data to itself (§5.2)
		}
		src, dst := chargeEntities(t, scope, co, f)
		if src.m != nil {
			at[src.key].sent += float64(f.Bytes) * rt.Factor(src.m, dst.m)
			at[src.key].r = src.r
		}
		if dst.m != nil {
			at[dst.key].recv += float64(f.Bytes)
			at[dst.key].r = dst.r
		}
	}
	h := 0.0
	for _, v := range at {
		h = max(h, v.r*max(v.sent, v.recv))
	}
	clear(at)
	tallies.Put(pooled)
	return h
}

// Terms is the one rule a step is priced by, on both engines and in every
// closed form: from its flows, work[pid] in fastest-machine units and the
// §6 rates rt (nil: none), W with its gating pid (-1: none) and imbalance,
// H, Comm = g·H, Sync = L, Flows and Bytes (self-sends and empty messages
// excluded), and the step's time W + g·H + L. It allocates nothing.
func Terms(t *model.Tree, scope *model.Machine, flows []Flow, work []float64, rt *model.RateTable) (trace.Shape, float64) {
	s := trace.Shape{Sync: scope.SyncCost, GatingPid: -1}
	sum, positive := 0.0, 0
	for pid, w := range work {
		if w > s.W {
			s.W, s.GatingPid = w, pid
		}
		if w > 0 {
			sum += w
			positive++
		}
	}
	if positive > 0 && sum > 0 {
		s.Imbalance = s.W / (sum / float64(positive))
	}
	for _, f := range flows {
		if f.Src != f.Dst && f.Bytes > 0 {
			s.Flows++
			s.Bytes += f.Bytes
		}
	}
	s.H = HRelationRated(t, scope, flows, rt)
	s.Comm = t.G * s.H
	return s, s.W + s.Comm + s.Sync
}

// StepCost assembles a Step from raw ingredients: the scope, the flows
// of the step, and per-participant local computation (already expressed
// in fastest-machine time units). Sync cost is the scope's L.
func StepCost(t *model.Tree, scope *model.Machine, label string, flows []Flow, works []float64) Step {
	s, _ := Terms(t, scope, flows, works, nil)
	return Step{Label: label, Scope: scope, Level: scope.Level, Work: s.W, H: s.H, Sync: s.Sync}
}
