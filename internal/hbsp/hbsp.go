// Package hbsp is HBSPlib: the superstep programming library of the
// HBSP^k model (§5.1), rebuilt in Go. Programs are SPMD functions run
// once per processor (leaf of the machine tree); they exchange bulk
// messages that become visible at the start of the next superstep, and
// they synchronize with scoped barriers: Sync(cluster) ends a
// super^i-step of that cluster's subtree, Sync(root) a global
// super^k-step.
//
// Two engines execute programs:
//
//   - Virtual is a sequential simulation: one processor's program runs
//     at a time, and a virtual clock is charged by package fabric — this
//     is the paper's cost model made executable, bit-reproducible, and
//     the engine behind every experiment.
//   - Concurrent runs the program on the pvm substrate with real
//     parallelism and wall-clock timing; it exists to validate that the
//     algorithms are correct concurrent programs, not just costed ones.
//
// Both engines provide the HBSPlib enquiry and heterogeneity primitives:
// processor identity (Pid, NProcs, Self, Tree) and balanced workload
// shares (Share).
package hbsp

import (
	"hbspk/internal/model"
)

// Message is one delivered bulk message.
type Message struct {
	// Src is the sending processor's pid; Tag is program-chosen.
	Src, Tag int
	// Payload is the message body. Receivers must treat it as
	// read-only — engines may share the sender's bytes — and may hold it
	// only as long as Ctx.Moves says.
	Payload []byte
}

// Ctx is a processor's view of the machine during a run: the HBSPlib
// API. A Ctx is confined to the goroutine running its program. A program
// waits for another processor only through Sync: Virtual runs one
// processor at a time, so any other wait on a peer (a channel, a
// WaitGroup, a spin on shared memory) never returns there. A run's
// membership is every pid of the tree, less the processors that crash or
// leave: it only shrinks, on both engines, so the live set a processor
// knows is every pid minus Failed.
type Ctx interface {
	// Pid returns this processor's id (position among the leaves).
	Pid() int
	// NProcs returns the number of processors.
	NProcs() int
	// Tree returns the machine being run on.
	Tree() *model.Tree
	// Self returns this processor's leaf machine.
	Self() *model.Machine

	// Send queues a message for dst. It is delivered at the first
	// subsequent Sync whose scope contains both processors, and becomes
	// readable via Moves after that Sync returns. The engine holds
	// payload by reference, not a copy, until the Sync that delivers it
	// returns. Concurrent is done with the slice then (it has been
	// written to the wire or copied for the receiver); Virtual hands the
	// receiver the very same bytes. A portable program therefore never
	// writes to a slice it has sent. What the receiver gets lives as
	// Moves says, whatever the sender does with its slice. SendScratch's
	// bytes go back to Concurrent's arena at the first successful Sync
	// that leaves the outbox empty, under Verify poisoned. The tag is
	// any int32 value, which Concurrent carries in the message body; a
	// tag outside that range is an error on both engines.
	Send(dst, tag int, payload []byte) error
	// Moves returns the messages delivered by the last Sync, ordered by
	// sender pid and, within one sender, by send order. A payload it
	// returns after Sync n stays valid through Sync n+1; a program that
	// needs the bytes longer copies them. Concurrent recycles them when
	// Sync n+2 succeeds — a Sync that fails recycles nothing, so Moves
	// can be re-read after ErrPeerFailed — and under Verify overwrites
	// them with Poison first, so that a read past the rule reads Poison.
	// Virtual hands the receiver the sender's own slice.
	Moves() []Message

	// Charge accounts local computation: ops is work in fastest-machine
	// time units and is scaled by this machine's compute slowdown. The
	// charge lands in the w term of the enclosing superstep.
	Charge(ops float64)

	// Sync ends a super^i-step over the subtree of scope, which must be
	// an ancestor of (or equal to) this processor's leaf. Every
	// processor in that subtree must call Sync with the same scope for
	// the step to complete. When a scope member is dead, the first Sync
	// on that scope after the failure returns ErrPeerFailed (every live
	// member observes it at the same sync generation); subsequent Syncs
	// complete over the survivors.
	Sync(scope *model.Machine, label string) error

	// Failed returns the pids this processor knows to be dead, in
	// ascending order. The set grows exactly when a Sync returns
	// ErrPeerFailed, so all live members of a scope share the same view
	// at the same sync generation.
	Failed() []int

	// Save records named per-processor state, the last value per key,
	// copying data. Virtual.RunSchedules reads the state a run ends with
	// into its fingerprint; on every other run Save does nothing.
	Save(key string, data []byte)
}

// Program is an SPMD processor program.
type Program func(Ctx) error

// SyncAll synchronizes the whole machine: a super^k-step.
func SyncAll(c Ctx, label string) error { return c.Sync(c.Tree().Root, label) }

// Share returns the processor's balanced-workload fraction c_{i,j}
// (HBSPlib's "guide the programmer toward balanced workloads").
func Share(c Ctx) float64 { return c.Self().Share }
