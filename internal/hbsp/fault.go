package hbsp

import (
	"errors"
	"fmt"
	"sort"

	"hbspk/internal/pvm"
)

// The fault model (DESIGN.md §5.2): processors fail by crash-stop —
// they halt at a synchronization boundary, lose whatever that superstep
// had queued, and never act again. Failures are injected by a
// fabric.ChaosPlan and surfaced by both engines through one taxonomy:
//
//   - ErrPeerFailed: a peer of the sync scope is known dead. Every live
//     member of the scope observes the error exactly once, at the same
//     per-scope sync generation, and later Syncs on that scope complete
//     over the survivors only.
//   - ErrTimeout: a deadline expired with the peer's fate unknown (an
//     FT collective lost every copy of its verdict, or a wire
//     transport's acknowledgment never came).
//   - ErrDesync: the program itself is malformed SPMD (unchanged from
//     the desync watchdog's contract).

// ErrPeerFailed reports that a scope member is dead: Pid names the
// failed processor, Step the sync ordinal at which it failed, and Cause
// what killed it. Detect it with errors.As:
//
//	var pf *hbsp.ErrPeerFailed
//	if errors.As(err, &pf) { ... pf.Pid ... }
type ErrPeerFailed struct {
	Pid  int
	Step int
	// Cause describes the failure ("crash-stop", "exited", ...).
	Cause string
}

func (e *ErrPeerFailed) Error() string {
	return fmt.Sprintf("hbsp: peer p%d failed at step %d (%s)", e.Pid, e.Step, e.Cause)
}

// ErrTimeout is the deadline error, shared with the pvm substrate so
// errors.Is matches across layers.
var ErrTimeout = pvm.ErrTimeout

// errCrashStop is what a chaos-killed processor's own Sync returns: the
// victim's program unwinds with it, and the engines filter it out of
// the run verdict (an injected crash is the experiment, not a program
// bug — the run's outcome is decided by the survivors).
var errCrashStop = errors.New("hbsp: processor crash-stopped by chaos plan")

// errLeave is the victim side of an orderly departure (a churn fate's
// LeaveAt): the leaver's program unwinds with it and the engines filter
// it from the run verdict, exactly like errCrashStop. Survivors see the
// departure as ErrPeerFailed with Cause "leave".
var errLeave = errors.New("hbsp: processor left by churn plan")

// defaultDetectFactor scales the predicted step cost into a detection
// deadline when Virtual's DetectFactor is unset.
const defaultDetectFactor = 3.0

// failInfo is the engine-side record of one dead processor.
type failInfo struct {
	step  int
	cause string
}

// sortedPids returns the keys of a failure map in ascending order.
func sortedPids[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for pid := range m {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}
