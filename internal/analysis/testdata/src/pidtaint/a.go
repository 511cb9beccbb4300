// Package pidtaint is the golden fixture for the alignment analyzer:
// stub HBSPlib vocabulary plus seeded misalignment bugs (branch arms
// with different synchronization sequences, early returns that skip
// barriers, pid-bounded sync loops) and audited-aligned negatives (the
// coordinator-election idiom, ancestor-of-self scopes, helpers that
// sync identically in both arms).
package pidtaint

type Machine struct{}

func (m *Machine) Contains(pid int) bool { return true }

type Ctx interface {
	Pid() int
	Self() *Machine
	Send(dst, tag int, payload []byte) error
	Moves() [][]byte
	Sync(scope *Machine, label string) error
}

func SyncAll(c Ctx, label string) error { return c.Sync(nil, label) }

func Gather(c Ctx, scope *Machine, root int, n []byte) error { return c.Sync(scope, "gather") }
func Reduce(c Ctx, scope *Machine, root int, n []byte) error { return c.Sync(scope, "reduce") }

func enclosingScope(c Ctx, lvl int) *Machine { _ = c.Self(); return nil }

func Coordinator(c Ctx, scope *Machine) int { return 0 }

// --- violations ---

// Arms synchronize differently: the root runs a gather, everyone else
// a bare sync. Sequences diverge at the first collective.
func armsDifferentCollective(c Ctx, scope *Machine, data []byte) error {
	if c.Pid() == 0 { // want `pid-divergent branches synchronize differently`
		return Gather(c, scope, 0, data)
	}
	return SyncAll(c, "fallback")
}

// One arm syncs twice, the other once: counts differ even though both
// arms end in the same collective.
func armsDifferentCount(c Ctx, scope *Machine, data []byte) error {
	if c.Pid()%2 == 0 { // want `pid-divergent branches synchronize differently`
		if err := SyncAll(c, "extra"); err != nil {
			return err
		}
	}
	return Gather(c, scope, 0, data)
}

// An early return on the pid-tainted branch skips the barrier that
// follows the if: the returning processors never reach "after".
func earlyReturnSkipsBarrier(c Ctx, data []byte) error {
	if c.Pid() > 3 { // want `pid-divergent branches synchronize differently`
		return nil
	}
	return SyncAll(c, "after")
}

// A sync inside a loop whose bound is the processor id: pid 0 syncs
// zero times, pid 7 seven times.
func pidBoundedSyncLoop(c Ctx) error {
	for i := 0; i < c.Pid(); i++ { // want `loop bound is pid-divergent and the body synchronizes`
		if err := SyncAll(c, "round"); err != nil {
			return err
		}
	}
	return nil
}

// Misalignment through a helper: the then-arm calls a helper that
// synchronizes twice, the else-arm syncs once inline. The per-function
// summary exposes the difference interprocedurally.
func doubleSync(c Ctx) error {
	if err := SyncAll(c, "one"); err != nil {
		return err
	}
	return SyncAll(c, "two")
}

func misalignedThroughHelper(c Ctx) error {
	if c.Pid() == 0 { // want `pid-divergent branches synchronize differently`
		return doubleSync(c)
	}
	return SyncAll(c, "one")
}

// A pid-divergent switch whose cases sync on different labels.
func divergentSwitch(c Ctx, scope *Machine) error {
	switch c.Pid() % 3 { // want `pid-divergent switch arms synchronize differently`
	case 0:
		return c.Sync(scope, "a")
	case 1:
		return c.Sync(scope, "b")
	default:
		return nil
	}
}

// Ranging over delivered messages with a synchronizing body: delivery
// counts differ per processor, so sync counts do too.
func syncPerDelivery(c Ctx) error {
	for range c.Moves() { // want `ranging over a pid-divergent value with a synchronizing body`
		if err := SyncAll(c, "per-msg"); err != nil {
			return err
		}
	}
	return nil
}

// --- aligned (negative) patterns ---

// The coordinator-election idiom: the root does extra non-synchronizing
// work (sends), but both arms rejoin with the identical barrier.
func coordinatorDoesExtraSends(c Ctx, scope *Machine, data []byte) error {
	root := Coordinator(c, scope)
	if c.Pid() == root {
		for dst := 0; dst < 4; dst++ {
			if err := c.Send(dst, 1, data); err != nil {
				return err
			}
		}
	}
	return SyncAll(c, "rejoin")
}

// Both arms synchronize identically — different payloads, same
// sequence.
func armsAligned(c Ctx, scope *Machine, a, b []byte) error {
	if c.Pid() == 0 {
		if err := c.Send(1, 0, a); err != nil {
			return err
		}
		return Gather(c, scope, 0, a)
	}
	if err := c.Send(0, 0, b); err != nil {
		return err
	}
	return Gather(c, scope, 0, b)
}

// Ancestor-of-self scopes are divergent in the taint sense but
// convergent per scope membership: a barrier on one is aligned.
func ancestorScopeIsConvergent(c Ctx) error {
	scope := enclosingScope(c, 1)
	if scope != nil {
		return c.Sync(scope, "cluster")
	}
	return c.Sync(nil, "cluster")
}

// A uniform (untainted) branch may synchronize asymmetrically: every
// processor takes the same arm.
func uniformBranch(c Ctx, quorum bool) error {
	if quorum {
		return SyncAll(c, "commit")
	}
	return nil
}

// The same helper called in both arms is trivially aligned.
func helperBothArms(c Ctx) error {
	if c.Pid() == 0 {
		return doubleSync(c)
	}
	return doubleSync(c)
}

// Error returns mirrored in both arms stay aligned: each arm's sync
// sequence (including the error exit) is identical.
func alignedErrorHandling(c Ctx, scope *Machine, data []byte) error {
	if c.Pid()%2 == 0 {
		if err := Gather(c, scope, 0, data); err != nil {
			return err
		}
		return SyncAll(c, "done")
	}
	if err := Gather(c, scope, 0, data); err != nil {
		return err
	}
	return SyncAll(c, "done")
}

func errorf(string) error { return nil }

// The membership guard: processors outside the scope abort with an
// error before any barrier. An abort surfaces to the whole scope, so
// the sync-free error return is not a desync.
func membershipGuardAborts(c Ctx, scope *Machine, data []byte) error {
	if c.Pid() > 7 {
		return errorf("outside scope")
	}
	if err := Gather(c, scope, 0, data); err != nil {
		return err
	}
	return SyncAll(c, "done")
}

// --- the vocabulary across packages ---

// What a program imports from package collective is known by name, not
// by body: these stubs synchronize nothing themselves, as any function
// of another package looks from here.

type Planner struct{}

func PlannedBcast(c Ctx, p *Planner, n int, data []byte) ([]byte, error) { return data, nil }

type FT struct{}

func (f *FT) AllReduce(local []int64) ([]int64, error) { return local, nil }
func (f *FT) Live() []int                              { return nil }

// The planner-dispatched broadcast is a collective like any other: only
// the root entering it leaves everyone else behind.
func plannedUnderPid(c Ctx, p *Planner, data []byte) error {
	if c.Pid() == 0 { // want `pid-divergent branches synchronize differently`
		_, err := PlannedBcast(c, p, len(data), data)
		return err
	}
	return nil
}

// The fault-tolerant collectives hold their Ctx instead of taking it.
func ftUnderPid(c Ctx, ft *FT, local []int64) error {
	if c.Pid() == 0 { // want `pid-divergent branches synchronize differently`
		_, err := ft.AllReduce(local)
		return err
	}
	return nil
}

// An FT enquiry synchronizes nothing, whoever asks.
func ftEnquiryUnderPid(c Ctx, ft *FT) int {
	if c.Pid() == 0 {
		return len(ft.Live())
	}
	return 0
}
