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
	// crash-stops, message drop/duplicate/delay fates, and straggler
	// bursts. The same plan reproduces the same faults on both engines.
	ChaosPlan = fabric.ChaosPlan
	// Crash schedules one processor's crash-stop at a sync ordinal
	// (AtStep) or a virtual time (AtTime, virtual engine only).
	Crash = fabric.Crash
	// Straggler multiplies one processor's charged work over a window
	// of supersteps.
	Straggler = fabric.Straggler
	// Churn is one processor's elastic-membership fate: a late join
	// (dormant until JoinAt completed global barriers), an orderly leave
	// (at its LeaveAt-th sync), or both.
	Churn = fabric.Churn
	// ErrPeerFailed is the typed death notice a Sync returns to every
	// live scope member when a peer has crash-stopped. Detect it with
	// errors.As.
	ErrPeerFailed = hbsp.ErrPeerFailed
	// ErrPeerJoined is the typed join notice a Sync returns to every
	// member of a scope — the newcomer included — when a processor
	// activated at the last membership cut. Detect it with errors.As,
	// refresh Ctx.Members, and retry the Sync.
	ErrPeerJoined = hbsp.ErrPeerJoined
	// CheckpointStore holds committed superstep checkpoints; share one
	// store between a crashed run and its recovery run.
	CheckpointStore = hbsp.CheckpointStore
	// FT is a session of fault-tolerant collectives over one scope.
	FT = collective.FT
)

var (
	// ErrTimeout is the failure-detection deadline verdict: a peer's
	// fate is unknown, unlike the definite ErrPeerFailed.
	ErrTimeout = hbsp.ErrTimeout
	// ErrLost reports that a fault-tolerant operation's data died with
	// its holders (e.g. a broadcast source crashed before any survivor
	// held a copy).
	ErrLost = collective.ErrLost
)

// IsCrashStop reports whether err is the error a chaos-killed
// processor's own Sync returns (survivors see ErrPeerFailed instead).
func IsCrashStop(err error) bool { return hbsp.IsCrashStop(err) }

// IsLeave reports whether err is the error an orderly leaver's own Sync
// returns (survivors see ErrPeerFailed with Cause "leave" instead).
func IsLeave(err error) bool { return hbsp.IsLeave(err) }

// SeededChurn deterministically generates a churn schedule for nprocs
// processors: the last `joins` pids become late joiners and `leaves`
// earlier pids (never pid 0) become orderly leavers, with
// activation/departure points hashed from the seed into the given span
// of global barriers. Equal arguments produce identical schedules.
func SeededChurn(seed int64, nprocs, joins, leaves, span int) []Churn {
	return fabric.SeededChurn(seed, nprocs, joins, leaves, span)
}

// RunChaos executes the program on the virtual-time engine under a
// fault-injection plan. Runs remain fully deterministic: the same tree,
// fabric, plan and program produce identical reports.
func RunChaos(t *Tree, cfg FabricConfig, plan *ChaosPlan, prog Program) (*Report, error) {
	return hbsp.RunVirtualChaos(t, cfg, plan, prog)
}

// RunConcurrentChaos executes the program on the wall-clock engine
// under a fault-injection plan (AtTime crashes and virtual-clock delays
// do not apply there; everything else matches the virtual engine).
func RunConcurrentChaos(t *Tree, plan *ChaosPlan, prog Program) (*Report, error) {
	eng := hbsp.NewConcurrent(t)
	eng.Chaos = plan
	return eng.Run(prog)
}

// ElasticConfig configures a self-healing run: a fabric, a chaos plan
// that may include churn fates, and the barrier-time reorganization
// cadence (DESIGN.md §5.7). ReorgEvery <= 0 freezes the tree.
type ElasticConfig struct {
	Fabric     FabricConfig
	Chaos      *ChaosPlan
	ReorgEvery int
	ReorgSeed  int64
}

// RunElastic executes the program on the virtual-time engine with
// dynamic tree reorganization and elastic membership enabled. The tree
// is rebalanced in place at every ReorgEvery-th global barrier; callers
// replaying several runs should snapshot with t.SaveLayout and restore
// between runs. Equal seeds produce identical reorg schedules.
func RunElastic(t *Tree, cfg ElasticConfig, prog Program) (*Report, error) {
	eng := hbsp.NewVirtual(t, fabric.New(t, cfg.Fabric))
	eng.Chaos = cfg.Chaos
	eng.ReorgEvery = cfg.ReorgEvery
	eng.ReorgSeed = cfg.ReorgSeed
	return eng.Run(prog)
}

// RunConcurrentElastic is RunElastic on the wall-clock engine: the same
// cut protocol runs at real barriers, with one applier rebalancing the
// tree while every live processor is parked.
func RunConcurrentElastic(t *Tree, cfg ElasticConfig, prog Program) (*Report, error) {
	eng := hbsp.NewConcurrent(t)
	eng.Chaos = cfg.Chaos
	eng.ReorgEvery = cfg.ReorgEvery
	eng.ReorgSeed = cfg.ReorgSeed
	return eng.Run(prog)
}

// NewCheckpointStore returns an empty checkpoint store.
func NewCheckpointStore() *CheckpointStore { return hbsp.NewCheckpointStore() }

// NewFT opens a fault-tolerant collective session over the scope: its
// Gather, Bcast, Reduce and AllReduce survive member crashes by
// re-electing the fastest live coordinator and rerunning over the
// survivor set.
func NewFT(c Ctx, scope *Machine) *FT { return collective.NewFT(c, scope) }

// LiveShares renormalizes the balanced-workload fractions c_{i,j} over
// the scope's surviving members, so degraded-mode partitioning stays
// balanced.
func LiveShares(c Ctx, scope *Machine, live []int) map[int]float64 {
	return collective.LiveShares(c, scope, live)
}
