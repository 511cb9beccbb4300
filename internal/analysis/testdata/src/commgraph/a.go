// Package commgraph is the golden fixture for the commgraph analyzer:
// a self-contained replica of the HBSPlib Ctx surface with seeded
// communication-topology violations — unmatched sends, reads before any
// delivery, and divergent-scope barriers. The analyzer keys on method
// sets, not import paths, so the stubs exercise exactly the production
// detection logic.
package commgraph

type Machine struct{}

func (m *Machine) Coordinator() *Machine { return m }

type Tree struct{ Root *Machine }

func (t *Tree) Pid(m *Machine) int { return 0 }

func (t *Tree) ScopeAt(m *Machine, lvl int) *Machine { return m }

type Message struct {
	Src, Tag int
	Payload  []byte
}

type Ctx interface {
	Pid() int
	NProcs() int
	Tree() *Tree
	Self() *Machine
	Moves() []Message
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func SyncAll(c Ctx, label string) error { return c.Sync(nil, label) }

func Gather(c Ctx, scope *Machine, root int, payload []byte) error {
	return c.Sync(scope, "gather")
}

// Run stands in for the engine entry points: its function-literal
// argument executes from superstep zero.
func Run(prog func(Ctx) error) error { return nil }

// scopeOf stands in for any per-processor scope choice that is NOT an
// ancestor-of-self lookup; barriers on its result cannot agree.
func scopeOf(pid int) *Machine { return nil }

// --- violations ---

func sendAfterLastSync(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("orphan")) // want `unmatched send: no Sync follows`
}

// The interprocedural case: the boundary is buried two calls deep, so
// only the call-graph fixpoint can see that the send after it dangles.
func sendAfterHelperSync(c Ctx, scope *Machine) error {
	if err := syncDeep(c, scope); err != nil {
		return err
	}
	return c.Send(1, 3, []byte("orphan")) // want `unmatched send: no Sync follows`
}

func syncDeep(c Ctx, scope *Machine) error { return syncDeeper(c, scope) }

func syncDeeper(c Ctx, scope *Machine) error { return c.Sync(scope, "deep") }

func readBeforeDelivery() error {
	return Run(func(c Ctx) error {
		for _, m := range c.Moves() { // want `Moves\(\) read before the first Sync`
			_ = m
		}
		return SyncAll(c, "late")
	})
}

func divergentScopeSync(c Ctx) error {
	return c.Sync(scopeOf(c.Pid()), "per-pid scope") // want `scope argument is processor-divergent`
}

func divergentScopeLocal(c Ctx) error {
	mine := scopeOf(c.Pid())
	return c.Sync(mine, "via local") // want `scope argument is processor-divergent`
}

func divergentCollectiveScope(c Ctx) error {
	return Gather(c, scopeOf(c.Pid()), 0, nil) // want `scope argument is processor-divergent`
}

// --- well-formed programs ---

func sendThenSync(c Ctx, scope *Machine, root int) error {
	if c.Pid() != root {
		if err := c.Send(root, 1, []byte("x")); err != nil {
			return err
		}
	}
	return c.Sync(scope, "gather")
}

// A send lexically after the loop's sync still meets a barrier on the
// next iteration.
func sendInSyncLoop(c Ctx, scope *Machine) error {
	for i := 0; i < 3; i++ {
		if err := c.Sync(scope, "round"); err != nil {
			return err
		}
		if err := c.Send(0, i, []byte("for next round")); err != nil {
			return err
		}
	}
	return nil
}

// Zero-sync helpers queue messages for the caller's barrier; only
// functions that manage their own supersteps are judged.
func queueForCaller(c Ctx, dst int) error {
	return c.Send(dst, 9, []byte("caller will sync"))
}

// Ancestor-of-self scopes are divergent in the taint sense but
// convergent per scope membership, directly or through a local.
func convergentScopes(c Ctx) error {
	cluster := c.Tree().ScopeAt(c.Self(), 1)
	if err := c.Sync(cluster, "cluster"); err != nil {
		return err
	}
	if err := c.Sync(c.Tree().ScopeAt(c.Self(), 2), "wider"); err != nil {
		return err
	}
	return c.Sync(c.Self(), "leaf singleton")
}

// The known-unprovable case: a reply server answers requests after its
// own barrier, relying on the caller's next sync to deliver them — the
// request/reply protocol shape, audited by hand.
func replyServer(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	for _, m := range c.Moves() {
		if err := c.Send(m.Src, 7, []byte{1}); err != nil { //hbspk:ignore commgraph (replies are delivered by the caller's next sync)
			return err
		}
	}
	return nil
}
