// Package syncdiscipline is pidtaint's second golden fixture, the one
// that pins the plain rule: a Sync, SyncAll or barrier that only some
// processors reach — under a pid-dependent if, else, switch case, loop
// bound or range — is reported at the controlling statement. It is a
// self-contained replica of the HBSPlib Ctx surface; the analyzer keys
// on method sets, not import paths, so the stubs exercise exactly the
// production detection logic.
package syncdiscipline

type Machine struct{}

func (m *Machine) Coordinator() *Machine { return m }

type Tree struct{ Root *Machine }

func (t *Tree) Pid(m *Machine) int { return 0 }

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

func Share(c Ctx) float64 { return 1 }

// --- violations ---

func syncUnderPidIf(c Ctx, scope *Machine, root int) error {
	if c.Pid() == root { // want `pid-divergent branches synchronize differently`
		return c.Sync(scope, "root only")
	}
	return nil
}

func syncUnderTaintedLocal(c Ctx, scope *Machine) error {
	me := c.Pid()
	amRoot := me == 0
	if amRoot { // want `pid-divergent branches synchronize differently`
		if err := c.Sync(scope, "tainted"); err != nil {
			return err
		}
	}
	return nil
}

func syncInPidBoundedLoop(c Ctx, scope *Machine) error {
	for i := 0; i < c.Pid(); i++ { // want `loop bound is pid-divergent and the body synchronizes`
		if err := c.Sync(scope, "loop"); err != nil {
			return err
		}
	}
	return nil
}

func syncAllUnderShare(c Ctx) error {
	if Share(c) > 0.5 { // want `pid-divergent branches synchronize differently`
		return SyncAll(c, "fastest only")
	}
	return nil
}

func syncUnderDivergentSwitch(c Ctx, scope *Machine, root int) error {
	switch { // want `pid-divergent switch arms synchronize differently`
	case c.Pid() != root:
		return c.Sync(scope, "non-root")
	}
	return nil
}

func syncPerMessage(c Ctx, scope *Machine) error {
	for range c.Moves() { // want `ranging over a pid-divergent value with a synchronizing body`
		if err := c.Sync(scope, "per message"); err != nil {
			return err
		}
	}
	return nil
}

func syncUnderElse(c Ctx, scope *Machine) error {
	if c.Pid() == 0 { // want `pid-divergent branches synchronize differently`
		return nil
	} else {
		return c.Sync(scope, "else branch")
	}
}

// --- well-formed programs ---

func sendUnderPidThenSync(c Ctx, scope *Machine, root int) error {
	if c.Pid() != root {
		if err := c.Send(root, 1, []byte("x")); err != nil {
			return err
		}
	}
	return c.Sync(scope, "gather")
}

func uniformLoop(c Ctx, scope *Machine, rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := c.Sync(scope, "round"); err != nil {
			return err
		}
	}
	return nil
}

func errCheckIdiom(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "top level"); err != nil {
		return err
	}
	return nil
}

func treePidIsNotDivergent(c Ctx, scope *Machine) error {
	rootPid := c.Tree().Pid(scope.Coordinator())
	if rootPid == 0 {
		return c.Sync(scope, "tree lookup is processor-independent")
	}
	return nil
}

func suppressed(c Ctx, scope *Machine) error {
	if c.Pid() == 0 { //hbspk:ignore pidtaint
		return c.Sync(scope, "audited")
	}
	return nil
}
