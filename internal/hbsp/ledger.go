package hbsp

import (
	"hbspk/internal/model"
	"hbspk/internal/obsv"
)

// ledger is one run's deaths and the notice protocol over them
// (DESIGN.md §5.2): who is dead, and which dead peer each processor has
// acknowledged on which scope. Both engines keep deaths and their
// notices here, with one rule; Virtual's elastic adds the reorganizing
// cut. On both engines a run's membership only shrinks. An engine owns
// how time advances and how bytes move.
//
// A ledger is not goroutine-safe. Virtual calls it from its coordinator
// only; Concurrent makes every call with crun.mu held.
//
// Scopes are keyed by *model.Machine: the pointer survives
// Tree.Reorganize, a moved leaf's Label() does not.
type ledger struct {
	// dead records crashed and departed processors.
	dead map[int]*failInfo
	// acked[pid] is the dead peers pid has acknowledged, per scope: a
	// death learned through a subscope must still surface on every other
	// scope containing the victim, or nested-scope members would diverge.
	// The invariant everything rests on is that the live members of a
	// scope hold identical sets for it whenever they meet at a barrier.
	acked []ackSets
}

// elastic is Virtual's ledger (DESIGN.md §5.7): the deaths and notices
// of ledger, plus the global cut that reorganizes the tree.
type elastic struct {
	ledger
	tree       *model.Tree
	obsv       *obsv.Recorder
	reorgEvery int
	reorgSeed  int64

	// rer folds measured effective compute slowdowns; epoch counts
	// applied reorganizations. owed is a reorganization that fell due
	// inside a collective and waits for a global barrier outside one.
	rer   *model.Reranker
	epoch int
	owed  bool
}

// ackSets is one processor's acknowledged peers per scope.
type ackSets map[*model.Machine]map[int]bool

func (a *ackSets) add(scope *model.Machine, pid int) {
	if *a == nil {
		*a = make(ackSets)
	}
	if (*a)[scope] == nil {
		(*a)[scope] = make(map[int]bool)
	}
	(*a)[scope][pid] = true
}

// newLedger starts the ledger of a run of p processors: nobody dead.
func newLedger(p int) ledger {
	return ledger{dead: make(map[int]*failInfo), acked: make([]ackSets, p)}
}

// newElastic starts Virtual's ledger: nobody dead, nothing owed.
func newElastic(t *model.Tree, rec *obsv.Recorder, reorgEvery int, reorgSeed int64) *elastic {
	return &elastic{
		ledger: newLedger(t.NProcs()),
		tree:   t, obsv: rec,
		reorgEvery: reorgEvery, reorgSeed: reorgSeed,
		rer: model.NewReranker(t.NProcs()),
	}
}

// alive reports whether pid takes part in barriers: it is not dead.
func (l *elastic) alive(pid int) bool { return l.dead[pid] == nil }

func (l *ledger) kill(pid, step int, cause string) {
	l.dead[pid] = &failInfo{step: step, cause: cause}
}

// deadNotice consumes pid's next dead-peer notice on the scope: the
// smallest dead member pid has not acknowledged there is acknowledged
// and returned, nil when pid owes none. Exactly one victim per notice:
// each notice burns one sync generation of the scope, and a member that
// entered between two deaths burns one per victim, so a member that
// learns of both at once must burn two as well — batching would park it
// one generation behind its peers forever.
func (l *ledger) deadNotice(pid int, scope *model.Machine) *ErrPeerFailed {
	if len(l.dead) == 0 {
		return nil
	}
	first := -1
	for _, m := range scope.Pids() {
		if l.dead[m] != nil && !l.acked[pid][scope][m] && (first < 0 || m < first) {
			first = m
		}
	}
	if first < 0 {
		return nil
	}
	l.acked[pid].add(scope, first)
	info := l.dead[first]
	return &ErrPeerFailed{Pid: first, Step: info.step, Cause: info.cause}
}

// live sizes pid's barrier on the scope (members lists its pids), on
// Concurrent: how many arrivals complete it, and the dead members pid
// has acknowledged there. Every live member computes the same answer at
// the same generation.
func (l *ledger) live(pid int, scope *model.Machine, members []int) (count int, ackedDead []int) {
	if len(l.dead) == 0 {
		return len(members), nil
	}
	for _, m := range members {
		if l.acked[pid][scope][m] {
			ackedDead = append(ackedDead, m)
		}
	}
	return len(members) - len(ackedDead), ackedDead
}

// hasAcked reports whether pid has acknowledged victim's death on the
// scope.
func (l *ledger) hasAcked(pid int, scope *model.Machine, victim int) bool {
	return l.acked[pid][scope][victim]
}

// failed is pid's Failed() view: every death it has acknowledged on any
// scope, ascending.
func (l *ledger) failed(pid int) []int {
	union := make(map[int]bool)
	for _, set := range l.acked[pid] {
		for d := range set {
			union[d] = true
		}
	}
	return sortedPids(union)
}

// equalize unions the per-scope acked sets of every live processor and
// gives each of them the union. A rebalance can move a leaf under a
// scope whose members acknowledged a death the mover only saw
// elsewhere; afterwards the moved-in member owes exactly the notices its
// new peers owe.
func (l *elastic) equalize() {
	var union ackSets
	for pid, perScope := range l.acked {
		if !l.alive(pid) {
			continue
		}
		for scope, set := range perScope {
			for q := range set {
				union.add(scope, q)
			}
		}
	}
	for pid := range l.acked {
		if !l.alive(pid) {
			continue
		}
		for scope, set := range union {
			for q := range set {
				l.acked[pid].add(scope, q)
			}
		}
	}
}

// cut runs the consistent cut after the R-th completed global barrier,
// with every live processor parked: when a reorganization is due,
// rebalance the tree and equalize the ack sets. depth is how many
// collectives the barrier is inside, on its smallest participant (SPMD
// programs agree on it): a collective picks its coordinators before a
// barrier and looks them up after it, so a reorganization due at
// depth > 0 is owed to the first global barrier at depth 0. now stamps
// the emitted events.
func (l *elastic) cut(R, depth int, now float64) error {
	l.owed = l.owed || l.reorgEvery > 0 && R%l.reorgEvery == 0
	if !l.owed {
		return nil
	}
	if depth > 0 {
		l.obsv.Reorg(l.epoch+1, 0, true, now)
		return nil
	}
	l.owed = false
	l.epoch++
	plan := model.PlanReorg(l.tree, l.rer.Estimates(), l.reorgSeed, l.epoch)
	if err := l.tree.Reorganize(plan); err != nil {
		return err
	}
	l.obsv.Reorg(l.epoch, plan.Moved, false, now)
	l.equalize()
	return nil
}
