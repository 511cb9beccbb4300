package hbsp

import (
	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
)

// ledger is one run's membership state and the protocol over it
// (DESIGN.md §5.2, §5.7): who is dead, dormant or joined, which notice
// each processor has acknowledged on which scope, and what happens at a
// global cut. Both engines keep deaths and their notices here; only
// Virtual has dormant processors, joins and cuts — Concurrent runs the
// membership it starts with. An engine owns how time advances and how
// bytes move.
//
// A ledger is not goroutine-safe. Virtual calls it from its coordinator
// only; Concurrent makes every call with crun.mu held.
//
// Scopes are keyed by *model.Machine: the pointer survives
// Tree.Reorganize, a moved leaf's Label() does not.
type ledger struct {
	tree       *model.Tree
	chaos      *fabric.ChaosPlan
	obsv       *obsv.Recorder
	reorgEvery int
	reorgSeed  int64

	// dead records crashed and departed processors; dormant ones await
	// their activation cut; joined maps an activated latecomer to that
	// cut's ordinal.
	dead    map[int]*failInfo
	dormant map[int]bool
	joined  map[int]int

	// acked[pid] and ackedJoin[pid] are the dead and joined peers pid has
	// acknowledged, per scope: a death learned through a subscope must
	// still surface on every other scope containing the victim, or
	// nested-scope members would diverge. The invariant everything rests
	// on is that the live members of a scope hold identical sets for it
	// whenever they meet at a barrier. knownActive[pid] is pid's
	// membership view.
	acked, ackedJoin []ackSets
	knownActive      []map[int]bool

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

// newLedger starts a run's ledger: processors with a churn JoinAt fate
// are dormant, everyone else knows everyone else.
func newLedger(t *model.Tree, chaos *fabric.ChaosPlan, rec *obsv.Recorder,
	reorgEvery int, reorgSeed int64) *ledger {
	p := t.NProcs()
	l := &ledger{
		tree: t, chaos: chaos, obsv: rec,
		reorgEvery: reorgEvery, reorgSeed: reorgSeed,
		dead:        make(map[int]*failInfo),
		dormant:     make(map[int]bool),
		joined:      make(map[int]int),
		acked:       make([]ackSets, p),
		ackedJoin:   make([]ackSets, p),
		knownActive: make([]map[int]bool, p),
		rer:         model.NewReranker(p),
	}
	for pid := 0; pid < p; pid++ {
		if chaos.JoinStep(pid) > 0 {
			l.dormant[pid] = true
		}
	}
	for _, pid := range l.actives() {
		l.knownActive[pid] = l.activeSet()
	}
	return l
}

// actives returns the non-dormant pids in ascending order.
func (l *ledger) actives() []int {
	var out []int
	for pid := 0; pid < l.tree.NProcs(); pid++ {
		if !l.dormant[pid] {
			out = append(out, pid)
		}
	}
	return out
}

func (l *ledger) activeSet() map[int]bool {
	set := make(map[int]bool)
	for _, pid := range l.actives() {
		set[pid] = true
	}
	return set
}

// alive reports whether pid takes part in barriers: neither dead nor
// dormant.
func (l *ledger) alive(pid int) bool { return l.dead[pid] == nil && !l.dormant[pid] }

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

// joinNotice consumes pid's join notice on the scope: every joined
// member is acknowledged and enters pid's membership view at once, and
// the smallest newly acknowledged one is named; nil when pid owes none.
// The newcomer itself owes the notice too — it burns the same
// generation as everyone else, which keeps a scope's generations
// aligned without renumbering.
func (l *ledger) joinNotice(pid int, scope *model.Machine) *ErrPeerJoined {
	if len(l.joined) == 0 {
		return nil
	}
	first := -1
	members := scope.Pids()
	for _, m := range members {
		if _, ok := l.joined[m]; ok && !l.ackedJoin[pid][scope][m] && (first < 0 || m < first) {
			first = m
		}
	}
	if first < 0 {
		return nil
	}
	for _, m := range members {
		if _, ok := l.joined[m]; ok {
			l.ackedJoin[pid].add(scope, m)
			l.knownActive[pid][m] = true
		}
	}
	return &ErrPeerJoined{Pid: first, Step: l.joined[first]}
}

// live sizes pid's barrier on the scope (members lists its pids), on
// Concurrent, which has no dormant members: how many arrivals complete
// it, and the dead members pid has acknowledged there. Every live member
// computes the same answer at the same generation.
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

// members is pid's Members() view, ascending.
func (l *ledger) members(pid int) []int { return sortedPids(l.knownActive[pid]) }

// equalize unions the per-scope sets of every live processor and gives
// each of them the union. A rebalance can move a leaf under a scope
// whose members acknowledged a death or join the mover only saw
// elsewhere; afterwards the moved-in member owes exactly the notices
// its new peers owe.
func (l *ledger) equalize(sets []ackSets) {
	var union ackSets
	for pid, perScope := range sets {
		if !l.alive(pid) {
			continue
		}
		for scope, set := range perScope {
			for q := range set {
				union.add(scope, q)
			}
		}
	}
	for pid := range sets {
		if !l.alive(pid) {
			continue
		}
		for scope, set := range union {
			for q := range set {
				sets[pid].add(scope, q)
			}
		}
	}
}

// seed gives a newcomer activated at the given cut, per scope, the sets
// of the scope's smallest live old member. Old members agree on them at
// a cut, so the newcomer inherits exactly the notices they still owe
// and burns the same generations. A scope with no live old member
// seeds nothing: the newcomer's notices there race nobody.
func (l *ledger) seed(pid, cut int) {
	l.tree.Root.Walk(func(scope *model.Machine) {
		donor := -1
		for _, m := range scope.Pids() {
			if m == pid || !l.alive(m) || l.joined[m] == cut {
				continue
			}
			if donor < 0 || m < donor {
				donor = m
			}
		}
		if donor < 0 {
			return
		}
		for d := range l.acked[donor][scope] {
			l.acked[pid].add(scope, d)
		}
		for j := range l.ackedJoin[donor][scope] {
			l.ackedJoin[pid].add(scope, j)
		}
	})
}

// due lists, ascending, the dormant processors whose JoinAt point the
// R-th completed global barrier has reached.
func (l *ledger) due(R int) []int {
	var act []int
	for _, pid := range sortedPids(l.dormant) {
		if l.chaos.JoinStep(pid) <= R {
			act = append(act, pid)
		}
	}
	return act
}

// cut runs the consistent cut after the R-th completed global barrier,
// with every live processor parked: rebalance the tree, equalize the
// ack sets, activate the due joiners — in that order. A started joiner
// reads the tree at once, so nothing may change it after start(pid).
// depth is how many collectives the barrier is inside, on its smallest
// participant (SPMD programs agree on it): a collective picks
// its coordinators before a barrier and looks them up after it, so a
// reorganization due at depth > 0 is owed to the first global barrier
// at depth 0. start lets an activated pid run. now stamps the emitted
// events.
func (l *ledger) cut(R, depth int, now float64, start func(pid int)) error {
	l.owed = l.owed || l.reorgEvery > 0 && R%l.reorgEvery == 0
	if l.owed && depth > 0 {
		l.obsv.Reorg(l.epoch+1, 0, true, now)
	} else if l.owed {
		l.owed = false
		l.epoch++
		plan := model.PlanReorg(l.tree, l.rer.Estimates(), l.reorgSeed, l.epoch)
		if err := l.tree.Reorganize(plan); err != nil {
			return err
		}
		l.obsv.Reorg(l.epoch, plan.Moved, false, now)
		l.equalize(l.acked)
		l.equalize(l.ackedJoin)
	}
	act := l.due(R)
	for _, pid := range act {
		delete(l.dormant, pid)
	}
	for _, pid := range act {
		l.joined[pid] = R
		l.knownActive[pid] = l.activeSet()
		l.seed(pid, R)
		l.obsv.Chaos("join", R, pid, pid, now)
		start(pid)
	}
	return nil
}
