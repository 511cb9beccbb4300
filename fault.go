package hbspk

import (
	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
)

// Fault injection and fault tolerance over the public API: seeded chaos
// plans drive both engines deterministically, failures surface as typed
// errors, and the FT collectives complete over the survivors.

type (
	// ChaosPlan is a seeded, deterministic fault-injection plan:
	// crash-stops, message drop/duplicate/delay fates, straggler bursts
	// and orderly leaves. The same plan reproduces the same faults on
	// both engines (AtTime crashes need the virtual clock). A run's
	// membership only shrinks.
	ChaosPlan = fabric.ChaosPlan
	// Crash schedules one processor's crash-stop at a sync ordinal
	// (AtStep) or a virtual time (AtTime, virtual engine only).
	Crash = fabric.Crash
	// Straggler multiplies one processor's charged work over a window
	// of supersteps.
	Straggler = fabric.Straggler
	// Churn is one processor's orderly leave, at its LeaveAt-th sync,
	// on both engines.
	Churn = fabric.Churn
	// ErrPeerFailed is the typed death notice a Sync returns to every
	// live scope member when a peer has crash-stopped. Detect it with
	// errors.As.
	ErrPeerFailed = hbsp.ErrPeerFailed
	// FT is a session of fault-tolerant collectives over one scope.
	FT = collective.FT
)

var (
	// ErrTimeout reports a deadline that expired with a peer's fate
	// unknown, unlike the definite ErrPeerFailed: an FT collective's
	// member lost every copy of its coordinator's verdict, or a wire
	// transport's acknowledgment did not come within its AckTimeout.
	ErrTimeout = hbsp.ErrTimeout
	// ErrLost reports that a fault-tolerant operation's data died with
	// its holders (e.g. a broadcast source crashed before any survivor
	// held a copy).
	ErrLost = collective.ErrLost
)

// RunChaos executes the program on the virtual-time engine under a
// fault-injection plan. Runs remain fully deterministic: the same tree,
// fabric, plan and program produce identical reports.
func RunChaos(t *Tree, cfg FabricConfig, plan *ChaosPlan, prog Program) (*Report, error) {
	eng := hbsp.NewVirtual(t, fabric.New(t, cfg))
	eng.Chaos = plan
	return eng.Run(prog)
}

// NewFT opens a fault-tolerant collective session over the scope: its
// Gather, Bcast, Reduce and AllReduce survive member crashes by
// re-electing the fastest live coordinator and rerunning over the
// survivor set.
func NewFT(c Ctx, scope *Machine) *FT { return collective.NewFT(c, scope) }
