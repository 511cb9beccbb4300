// Package syncflow is the golden fixture for the syncflow analyzer: a
// self-contained replica of the HBSPlib Ctx surface with seeded
// delivered-buffer lifetime violations, including the cross-function
// shapes that need the package call graph. The analyzer keys on method
// sets, not import paths, so the stubs exercise exactly the production
// detection logic.
package syncflow

type Machine struct{}

type Tree struct{ Root *Machine }

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

func consume(b []byte) error { return nil }

func decode(b []byte) []int { return make([]int, len(b)) }

// --- violations ---

// A payload outlives the Sync after the one that delivered it: the first
// read, one boundary on, is sound; the second, two on, reads recycled
// bytes.
func staleAcrossTwoSyncs(c Ctx, scope *Machine) error {
	var first []byte
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	for _, m := range c.Moves() {
		first = m.Payload
	}
	if err := c.Sync(scope, "next step"); err != nil {
		return err
	}
	if err := consume(first); err != nil {
		return err
	}
	if err := c.Sync(scope, "the step after"); err != nil {
		return err
	}
	return consume(first) // want `delivered buffer "first" read 2 superstep boundaries after it was bound`
}

// The boundary is a helper whose Sync only the call graph can see; a
// helper may sync more than once, so it counts two.
func staleAcrossHelperBoundary(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	moves := c.Moves()
	if err := stepOnce(c, scope); err != nil {
		return err
	}
	return consume(moves[0].Payload) // want `delivered buffer "moves" read 2 superstep boundaries after it was bound`
}

func stepOnce(c Ctx, scope *Machine) error { return c.Sync(scope, "hidden boundary") }

// The buffer expires inside the callee: the caller has crossed one Sync
// since the delivery, and relayAfterBarrier crosses one more before
// reading its parameter, so handing it the payload is a late read one
// frame down.
func staleArgAfterOneSync(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	var payload []byte
	for _, m := range c.Moves() {
		payload = m.Payload
	}
	if err := c.Sync(scope, "keep"); err != nil {
		return err
	}
	return relayAfterBarrier(c, scope, payload) // want `delivered buffer passed to relayAfterBarrier, which reads it 2 superstep boundaries after it was bound`
}

func relayAfterBarrier(c Ctx, scope *Machine, b []byte) error {
	if err := c.Sync(scope, "cross"); err != nil {
		return err
	}
	return consume(b)
}

// --- well-formed programs ---

// Reads within the delivering superstep are the model working as
// intended.
func readInWindow(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	for _, m := range c.Moves() {
		if err := consume(m.Payload); err != nil {
			return err
		}
	}
	return c.Sync(scope, "done")
}

// Copies and decoded values are fresh storage: function results are
// presumed to not alias the delivery window.
func copyOutlivesWindow(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	var kept []byte
	var nums []int
	for _, m := range c.Moves() {
		kept = append([]byte(nil), m.Payload...)
		nums = decode(m.Payload)
	}
	if err := c.Sync(scope, "next step"); err != nil {
		return err
	}
	_ = nums
	return consume(kept)
}

// Arguments of a synchronizing call are read before the callee's
// internal barrier: passing the live window to a collective-shaped
// helper is fine when the helper reads it pre-barrier.
func argReadBeforeCalleeBarrier(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	var payload []byte
	for _, m := range c.Moves() {
		payload = m.Payload
	}
	return relayBeforeBarrier(c, scope, payload)
}

func relayBeforeBarrier(c Ctx, scope *Machine, b []byte) error {
	if err := consume(b); err != nil {
		return err
	}
	return c.Sync(scope, "after reading")
}

// Two-phase reassembly holds its own piece across the exchange barrier,
// exactly one boundary: the lifetime rule allows it.
func twoPhaseReassembly(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "phase 1"); err != nil {
		return err
	}
	var mine []byte
	for _, m := range c.Moves() {
		mine = m.Payload
	}
	if err := c.Send(0, 1, mine); err != nil {
		return err
	}
	if err := c.Sync(scope, "phase 2 exchange"); err != nil {
		return err
	}
	return consume(mine)
}

// A fresh payload handed to a helper that syncs once before reading it
// is read one boundary after its delivery: still valid.
func handOffToOneSync(c Ctx, scope *Machine) error {
	if err := c.Sync(scope, "deliver"); err != nil {
		return err
	}
	var payload []byte
	for _, m := range c.Moves() {
		payload = m.Payload
	}
	return relayAfterBarrier(c, scope, payload)
}

// A directive that excuses nothing is itself a finding: it would mask a
// future regression on its line.
func cleanButExcused(c Ctx, scope *Machine) error {
	return c.Sync(scope, "nothing to excuse") //hbspk:ignore syncflow // want `stale //hbspk:ignore syncflow: the directive suppresses nothing`
}
