package fabric

// Chaos injection: a seeded, deterministic fault plan the engines
// consult while running. The plan models the failure modes of the
// paper's non-dedicated cluster (§5) taken to their extreme — machines
// that crash-stop, links that drop, duplicate or delay individual
// messages, and transient straggler bursts — and composes with the
// fabric's multiplicative noise knob.
//
// Determinism contract: every decision is a pure function of the plan
// and the query, independent of call order. Message fates are derived
// by hashing (Seed, src, dst, seq); because both engines assign the
// same per-sender send sequence numbers to the same SPMD program, a
// plan produces the same fates under the virtual and the concurrent
// engine.

// Crash describes one crash-stop fault: the processor halts forever at
// a synchronization boundary, losing whatever it had queued for that
// superstep (messages in flight from earlier supersteps may still
// arrive — crash-stop, not crash-recall).
type Crash struct {
	// Pid is the victim processor.
	Pid int
	// AtStep, when >= 0, triggers the crash at the victim's AtStep-th
	// Sync call (0 = its first). Both engines honor it.
	AtStep int
	// AtTime, when > 0, triggers the crash at the first Sync call the
	// victim makes with its virtual clock at or past AtTime. Only the
	// virtual engine has a virtual clock; the concurrent engine ignores
	// it. A Crash with AtStep < 0 and AtTime <= 0 never fires.
	AtTime float64
}

// Straggler describes a transient slowdown burst: the processor's
// charged computation is multiplied by Factor for every superstep whose
// per-processor sync ordinal falls in [FromStep, ToStep].
type Straggler struct {
	Pid              int
	FromStep, ToStep int
	Factor           float64
}

// Churn describes one processor's elastic-membership fate: a late join,
// an orderly leave, or both. Join and leave points are counted in
// completed global barriers (the consistent cut both engines define),
// so a churn plan is engine-independent in the same way crash steps
// are.
type Churn struct {
	// Pid is the churning processor.
	Pid int
	// JoinAt, when > 0, keeps the processor dormant until JoinAt global
	// barriers have completed; it activates at that cut. 0 means the
	// processor is present from the start.
	JoinAt int
	// LeaveAt, when > 0, makes the processor leave at its LeaveAt-th
	// Sync call (0-based ordinal, like Crash.AtStep) — an orderly
	// departure announced at the barrier rather than a silent
	// crash-stop. LeaveAt <= 0 means it never leaves.
	LeaveAt int
}

// ChaosPlan is a deterministic fault-injection schedule. The zero value
// injects nothing; a nil *ChaosPlan is likewise inert.
type ChaosPlan struct {
	// Seed drives the per-message fate hashing. Plans with equal seeds
	// and rates produce identical fates.
	Seed int64
	// Crashes are the crash-stop faults.
	Crashes []Crash
	// Stragglers are the transient slowdown bursts.
	Stragglers []Straggler
	// Churns are the elastic-membership fates (late joins, orderly
	// leaves).
	Churns []Churn
	// Drop, Duplicate and Delay are independent per-message fault
	// probabilities in [0, 1]. A dropped message is never delivered
	// (its cost is still charged: the packets left the machine). A
	// duplicated message is delivered twice. A delayed message is held
	// back and delivered DelaySteps supersteps late.
	Drop, Duplicate, Delay float64
	// DelaySteps is how many supersteps a delayed message is held;
	// values < 1 mean 1.
	DelaySteps int
}

// Fate is the plan's verdict for one message.
type Fate struct {
	Drop      bool
	Duplicate bool
	// Delay is the number of supersteps the message is held (0 = on
	// time).
	Delay int
}

// JoinStep returns the number of completed global barriers after which
// pid activates, or 0 when the processor is present from the start.
func (p *ChaosPlan) JoinStep(pid int) int {
	if p == nil {
		return 0
	}
	for _, c := range p.Churns {
		if c.Pid == pid && c.JoinAt > 0 {
			return c.JoinAt
		}
	}
	return 0
}

// LeaveNow reports whether pid departs at this Sync call (step is the
// processor's 0-based sync ordinal, as in CrashNow).
func (p *ChaosPlan) LeaveNow(pid, step int) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Churns {
		if c.Pid == pid && c.LeaveAt > 0 && step >= c.LeaveAt {
			return true
		}
	}
	return false
}

// CrashNow reports whether pid crash-stops at this Sync call: step is
// the processor's 0-based sync ordinal and now its virtual clock (pass
// a negative now when there is no virtual clock).
func (p *ChaosPlan) CrashNow(pid, step int, now float64) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Pid != pid {
			continue
		}
		if c.AtStep >= 0 && step >= c.AtStep {
			return true
		}
		if c.AtTime > 0 && now >= c.AtTime {
			return true
		}
	}
	return false
}

// Slowdown returns the transient compute-slowdown factor for pid at the
// given sync ordinal: the product of every matching straggler burst,
// and at least 1.
func (p *ChaosPlan) Slowdown(pid, step int) float64 {
	f := 1.0
	if p == nil {
		return f
	}
	for _, s := range p.Stragglers {
		if s.Pid == pid && step >= s.FromStep && step <= s.ToStep && s.Factor > 1 {
			f *= s.Factor
		}
	}
	return f
}

// MessageFate returns the deterministic fate of the message identified
// by (src, dst, seq), where seq is the sender's per-run send sequence
// number — the same identity under both engines.
func (p *ChaosPlan) MessageFate(src, dst, seq int) Fate {
	var f Fate
	if p == nil {
		return f
	}
	if p.Drop > 0 && p.u01(1, src, dst, seq) < p.Drop {
		f.Drop = true
		return f
	}
	if p.Duplicate > 0 && p.u01(2, src, dst, seq) < p.Duplicate {
		f.Duplicate = true
	}
	if p.Delay > 0 && p.u01(3, src, dst, seq) < p.Delay {
		f.Delay = p.DelaySteps
		if f.Delay < 1 {
			f.Delay = 1
		}
	}
	return f
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed avalanche hash.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeededChurn deterministically generates a churn schedule: the last
// `joins` pids of [0, nprocs) become late joiners and `leaves` distinct
// earlier pids (never pid 0, which anchors coordination) become orderly
// leavers, with activation/departure points hashed from the seed into
// [1, span]. Equal arguments always produce the same schedule.
func SeededChurn(seed int64, nprocs, joins, leaves, span int) []Churn {
	if nprocs <= 1 || span < 1 {
		return nil
	}
	if joins < 0 {
		joins = 0
	}
	if leaves < 0 {
		leaves = 0
	}
	if joins > nprocs-1 {
		joins = nprocs - 1
	}
	var out []Churn
	at := func(salt, pid int) int {
		h := splitmix64(uint64(seed) ^ uint64(salt)<<48 ^ uint64(pid))
		return 1 + int(h%uint64(span))
	}
	for i := 0; i < joins; i++ {
		pid := nprocs - 1 - i
		out = append(out, Churn{Pid: pid, JoinAt: at(1, pid)})
	}
	// Leavers come from the stable prefix, highest-first, skipping pid 0.
	stable := nprocs - joins
	if leaves > stable-1 {
		leaves = stable - 1
	}
	for i := 0; i < leaves; i++ {
		pid := stable - 1 - i
		// Leave strictly after any join window so the tree is never
		// asked to shrink below its initial membership before joiners
		// arrive.
		out = append(out, Churn{Pid: pid, LeaveAt: span + at(2, pid)})
	}
	return out
}

// u01 derives a uniform draw in [0, 1) from the plan seed, a per-fault
// salt, and the message identity.
func (p *ChaosPlan) u01(salt, src, dst, seq int) float64 {
	h := splitmix64(uint64(p.Seed) ^ uint64(salt)<<56)
	h = splitmix64(h ^ uint64(src)<<32 ^ uint64(uint32(dst)))
	h = splitmix64(h ^ uint64(seq))
	return float64(h>>11) / (1 << 53)
}
