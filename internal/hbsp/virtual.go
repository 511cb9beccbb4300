package hbsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/trace"
)

// Virtual executes programs under the HBSP^k cost model on a
// deterministic virtual clock. Processors run as goroutines for
// programming-model fidelity, but every cost — computation,
// communication, synchronization — is charged by the fabric, so two runs
// with the same machine, program, fabric seed and chaos plan produce
// identical reports.
type Virtual struct {
	tree *model.Tree
	fab  *fabric.Fabric

	// MaxSteps, when positive, aborts the run with ErrStepLimit once
	// that many supersteps have completed — a guard against unbounded
	// iteration in user programs (the engine otherwise runs as long as
	// the program does).
	MaxSteps int

	// Chaos, when non-nil, injects the plan's faults: crash-stops at
	// sync boundaries, per-message drop/duplicate/delay, and straggler
	// bursts multiplying charged work. Composable with the fabric's
	// noise model.
	Chaos *fabric.ChaosPlan

	// DetectFactor scales the predicted step cost into the failure
	// detection deadline charged to each survivor when it learns of a
	// dead peer (zero means the default of 3). Repeated detections by
	// the same processor back off exponentially, like a real failure
	// detector widening its timeout.
	DetectFactor float64

	// Ckpt, when non-nil together with a positive CheckpointEvery,
	// commits every processor's Save()d state to the store at every
	// CheckpointEvery-th completed global superstep. Commit cost is
	// charged per Config.CheckpointByte so the analytic predictions
	// stay honest. Rerunning with the same store lets programs resume
	// from the last checkpointed barrier via Restore.
	Ckpt            *CheckpointStore
	CheckpointEvery int

	// Obsv, when non-nil, receives structured spans and metrics for the
	// run: superstep spans carrying the model's predicted T_i alongside
	// the charged time, per-processor barrier waits, sampled message
	// deliveries, and chaos injections. Times are on the virtual clock.
	Obsv *obsv.Recorder

	// Verify arms the happens-before checker (DESIGN.md §5.3): every
	// message carries the sender's vector clock and a payload checksum,
	// barriers join clocks, and a read that is not ordered after its
	// send — or a payload that changed under a reader — surfaces as a
	// typed *ErrNondeterminism. Stamping is charged zero cost.
	Verify bool

	// ReorgEvery, when positive, rebalances the machine tree at every
	// ReorgEvery-th completed global superstep (DESIGN.md §5.7): the
	// engine folds each processor's measured effective compute slowdown
	// into an EWMA estimate and, at the cut, applies the seeded
	// model.PlanReorg — leaves permuted across slots, shares re-derived
	// — in place. The tree is mutated; use Tree.SaveLayout/RestoreLayout
	// (RunSchedules does) to replay from the pristine layout. ReorgSeed
	// drives the plan's tie-breaking; equal seeds give equal schedules.
	ReorgEvery int
	ReorgSeed  int64
	// ReorgAlpha overrides the estimate EWMA smoothing factor (0 means
	// model.DefaultAlpha).
	ReorgAlpha float64

	// Plan, when set, receives the planner callbacks of DESIGN.md §5.9:
	// GlobalBarrier after every completed root-scope barrier (the
	// refinement-commit point) and TreeChanged after a reorg or
	// membership change — both fired from the coordinator while all
	// live processors are parked, so the hook may republish collective
	// selections without desynchronizing an in-flight collective.
	Plan PlanHook

	// inboxes stages delivered messages per pid between the engine's
	// completeStep and the owning processor's pickup after resume; the
	// resume channel orders the handoff. inmetas carries the parallel
	// verification records when Verify is set.
	inboxes [][]Message
	inmetas [][]msgMeta
	// inboxFree recycles spent inbox slices donated back through sync
	// requests, so steady-state staging reuses backings instead of
	// growing fresh ones every superstep.
	inboxFree [][]Message

	// Schedule-exploration state, driven by RunSchedules: permIndex 0
	// replays the canonical (src, seq) delivery order, higher indexes a
	// seeded permutation of each superstep's deliveries. rec, when
	// non-nil, records the run's observable state for fingerprinting.
	permIndex int
	permSeed  int64
	rec       *runRecord
}

// ErrStepLimit reports that a run exceeded the engine's MaxSteps.
var ErrStepLimit = errors.New("hbsp: superstep limit exceeded")

// NewVirtual returns an engine for the tree charging costs via fab,
// which must have been built for the same tree.
func NewVirtual(t *model.Tree, fab *fabric.Fabric) *Virtual {
	return &Virtual{tree: t, fab: fab}
}

// RunVirtual is a convenience wrapper: build a fabric with cfg and run.
func RunVirtual(t *model.Tree, cfg fabric.Config, prog Program) (*trace.Report, error) {
	return NewVirtual(t, fabric.New(t, cfg)).Run(prog)
}

// RunVirtualChaos is RunVirtual under a fault-injection plan.
func RunVirtualChaos(t *model.Tree, cfg fabric.Config, plan *fabric.ChaosPlan, prog Program) (*trace.Report, error) {
	eng := NewVirtual(t, fabric.New(t, cfg))
	eng.Chaos = plan
	return eng.Run(prog)
}

// ErrDesync reports a malformed SPMD program: processors blocked on
// barriers that can never complete, or a processor exiting while others
// still wait on a scope containing it.
var ErrDesync = errors.New("hbsp: processors desynchronized")

type pendingMsg struct {
	src, dst, tag int
	payload       []byte
	seq           int

	// Chaos bookkeeping: fate is computed once, at the first step the
	// message would otherwise deliver; holdUntil parks a delayed
	// message until the given completed-step count.
	fated     bool
	drop, dup bool
	holdUntil int

	// Verification stamp: the sender's vector clock and payload
	// checksum at Send time (Verify mode only).
	stamp VClock
	sum   uint64
}

type vrequest struct {
	pid    int
	kind   byte // 's' sync, 'd' done
	scope  *model.Machine
	label  string
	work   float64
	outbox []pendingMsg
	saves  map[string][]byte
	err    error
	resume chan error

	// ord is the processor's 0-based sync ordinal, stamped by the
	// engine when the request is handled.
	ord int

	// spent donates the requester's previous inbox slice back to the
	// engine. It may be reclaimed only on the success path: a sync that
	// resumes with an error leaves the processor's delivered window
	// readable (fault-tolerant programs re-read Moves after
	// ErrPeerFailed).
	spent []Message
}

// vctx is the per-processor Ctx of the virtual engine.
type vctx struct {
	pid    int
	leaf   *model.Machine
	eng    *Virtual
	reqs   chan<- *vrequest
	resume chan error

	work   float64
	outbox []pendingMsg
	inbox  []Message
	seq    int
	// clock is this processor's virtual time as of its last resume,
	// staged by the engine while the processor is parked (see obsvNow).
	clock float64

	// failedView is the dead-pid set this processor has acknowledged,
	// staged by the engine before each resume; membersView is likewise
	// the active-pid set it knows (its starting membership plus every
	// acknowledged join).
	failedView  []int
	membersView []int
	// ckptStage holds Save()d state until the next Sync ships it.
	ckptStage map[string][]byte

	// Verification state (Verify mode): vc is this processor's vector
	// clock, written by the engine while the processor is parked;
	// inmeta parallels inbox; steps counts completed Syncs.
	vc     VClock
	inmeta []msgMeta
	steps  int
}

func (c *vctx) Pid() int             { return c.pid }
func (c *vctx) NProcs() int          { return c.eng.tree.NProcs() }
func (c *vctx) Tree() *model.Tree    { return c.eng.tree }
func (c *vctx) Self() *model.Machine { return c.leaf }
func (c *vctx) Moves() []Message     { return c.inbox }
func (c *vctx) Charge(ops float64) {
	if ops > 0 {
		c.work += ops * c.leaf.CompSlowdown
	}
}

func (c *vctx) Failed() []int { return append([]int(nil), c.failedView...) }

func (c *vctx) Members() []int { return append([]int(nil), c.membersView...) }

func (c *vctx) Save(key string, data []byte) {
	if c.ckptStage == nil {
		c.ckptStage = make(map[string][]byte)
	}
	c.ckptStage[key] = append([]byte(nil), data...)
}

func (c *vctx) Restore(key string) ([]byte, bool) {
	if c.eng.Ckpt == nil {
		return nil, false
	}
	return c.eng.Ckpt.get(c.pid, key)
}

func (c *vctx) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= c.NProcs() {
		return fmt.Errorf("hbsp: send to pid %d of %d", dst, c.NProcs())
	}
	c.seq++
	m := pendingMsg{src: c.pid, dst: dst, tag: tag, payload: payload, seq: c.seq}
	if c.eng.Verify {
		m.stamp = c.vc.clone()
		m.sum = payloadSum(payload)
	}
	c.outbox = append(c.outbox, m)
	return nil
}

func (c *vctx) Sync(scope *model.Machine, label string) error {
	if scope == nil {
		return errors.New("hbsp: Sync with nil scope")
	}
	if c.eng.Verify {
		// The closing barrier ends this superstep's read window: the
		// delivered payloads must still be the bytes that arrived.
		if nd := recheckWindow(c.pid, c.steps, c.inbox, c.inmeta); nd != nil {
			return nd
		}
	}
	req := &vrequest{
		pid: c.pid, kind: 's', scope: scope, label: label,
		work: c.work, outbox: c.outbox, saves: c.ckptStage, resume: c.resume,
		spent: c.inbox,
	}
	c.work = 0
	c.outbox = nil
	c.ckptStage = nil
	c.reqs <- req
	err := <-c.resume
	if err != nil {
		return err
	}
	c.steps++
	c.inbox, c.inmeta = c.eng.takeInbox(c.pid)
	if c.eng.Verify {
		for i, m := range c.inbox {
			if i >= len(c.inmeta) {
				break
			}
			if nd := checkDelivery(c.pid, c.steps, m, c.inmeta[i], c.vc); nd != nil {
				return nd
			}
		}
	}
	return nil
}

// Run executes the program on every processor and returns the run's
// report. The error is the first processor error, or ErrDesync-wrapped
// diagnostics for malformed synchronization. A chaos-injected
// crash-stop is not itself a run error: if the survivors complete, the
// run completes (their view of the failure arrived as ErrPeerFailed
// from Sync, which a fault-tolerant program may absorb).
func (v *Virtual) Run(prog Program) (*trace.Report, error) {
	p := v.tree.NProcs()
	reqs := make(chan *vrequest)
	ctxs := make([]*vctx, p)
	for pid := 0; pid < p; pid++ {
		ctxs[pid] = &vctx{
			pid:    pid,
			leaf:   v.tree.Leaf(pid),
			eng:    v,
			reqs:   reqs,
			resume: make(chan error, 1),
		}
	}
	v.inboxes = make([][]Message, p)
	v.inmetas = make([][]msgMeta, p)
	if v.Verify {
		for pid := 0; pid < p; pid++ {
			ctxs[pid].vc = newVClock(p)
		}
	}
	// Elastic membership: processors with a churn JoinAt fate start
	// dormant and are activated — their goroutine spawned — at the
	// membership cut after that many completed global supersteps.
	led := newLedger(v.tree, v.Chaos, v.Plan, v.Obsv, v.ReorgEvery, v.ReorgSeed, v.ReorgAlpha)
	spawn := func(pid int) {
		go func(c *vctx) {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("hbsp: processor %d panicked: %v", c.pid, r)
				}
				// Work charged after the last sync is a trailing
				// compute-only step: it extends this processor's clock.
				// Saves staged after the last sync still ride along so
				// the run's final state stays observable.
				reqs <- &vrequest{pid: c.pid, kind: 'd', err: err, work: c.work, saves: c.ckptStage}
			}()
			err = prog(c)
		}(ctxs[pid])
	}
	actives := led.actives()
	for _, pid := range actives {
		ctxs[pid].membersView = actives
		spawn(pid)
	}
	return v.coordinate(reqs, ctxs, led, spawn, len(actives))
}

// engine-side run state (recreated per Run; Virtual is not reusable
// concurrently but may be reused serially).
type runState struct {
	pending     []*vrequest // by pid, nil = running
	done        []bool
	clocks      []float64
	undelivered []pendingMsg
	steps       []trace.Step
	firstErr    error

	// led is the run's membership ledger: dead, dormant and joined
	// processors, per-scope acknowledgments, reorg estimates and the
	// global cut. The engine keeps what is about time and delivery.
	led *ledger

	// syncOrd counts each processor's Sync calls; detectCount drives the
	// detection-deadline backoff; staged holds per-pid checkpoint saves
	// awaiting a commit boundary; globalSteps counts completed
	// root-scope supersteps (the checkpoint and cut cadence).
	syncOrd     []int
	detectCount []int
	staged      []map[string][]byte
	globalSteps int

	// spawn starts an activated latecomer's goroutine. reqs is the
	// coordinator's request channel, threaded here so a reorg cut can
	// drain the exit requests of still-unwinding dead processors before
	// the tree is mutated (quiesceDead).
	spawn func(pid int)
	reqs  chan *vrequest

	// running counts live goroutines; activation at a membership cut
	// increments it.
	running int

	// stepSum/stepN track each processor's mean completed step time,
	// the cost model's prediction base for detection deadlines. Per
	// processor, not global: a pid's step sequence is its program
	// order, so the charge stays deterministic even when sibling
	// scopes complete in scheduler-dependent order.
	stepSum []float64
	stepN   []int
}

// recycleSpent reclaims a resumed processor's donated inbox slice for
// the staging free list, zeroing the vacated slots so no payload stays
// reachable. Only the success path calls it: a sync resumed with an
// error keeps its delivered window readable.
func (v *Virtual) recycleSpent(r *vrequest) {
	if r == nil || r.spent == nil {
		return
	}
	s := r.spent
	r.spent = nil
	for i := range s {
		s[i] = Message{}
	}
	v.inboxFree = append(v.inboxFree, s[:0])
}

// inboxes staged for pickup by vctx.Sync after resume.
func (v *Virtual) takeInbox(pid int) ([]Message, []msgMeta) {
	in, meta := v.inboxes[pid], v.inmetas[pid]
	v.inboxes[pid] = nil
	v.inmetas[pid] = nil
	return in, meta
}

func (v *Virtual) coordinate(reqs chan *vrequest, ctxs []*vctx, led *ledger, spawn func(int), active int) (*trace.Report, error) {
	p := v.tree.NProcs()
	st := &runState{
		pending:     make([]*vrequest, p),
		done:        make([]bool, p),
		clocks:      make([]float64, p),
		led:         led,
		syncOrd:     make([]int, p),
		detectCount: make([]int, p),
		staged:      make([]map[string][]byte, p),
		stepSum:     make([]float64, p),
		stepN:       make([]int, p),
		spawn:       spawn,
		reqs:        reqs,
	}
	st.running = active
	for st.running > 0 {
		req := <-reqs
		switch req.kind {
		case 'd':
			v.handleDone(st, req)
		case 's':
			v.handleSync(st, ctxs, req)
		}
		v.release(st, ctxs)
		if v.MaxSteps > 0 && len(st.steps) >= v.MaxSteps && st.firstErr == nil {
			st.firstErr = fmt.Errorf("%w: %d supersteps completed", ErrStepLimit, len(st.steps))
		}
		// Deadlock / desync detection: every live processor is blocked
		// in a sync and nothing released.
		if st.firstErr == nil && v.stuck(st, st.running) {
			st.firstErr = v.desyncError(st)
			for pid, r := range st.pending {
				if r != nil {
					st.pending[pid] = nil
					r.resume <- st.firstErr
				}
			}
		}
		// On error, unblock any processor that syncs afterwards.
		if st.firstErr != nil {
			for pid, r := range st.pending {
				if r != nil {
					st.pending[pid] = nil
					r.resume <- st.firstErr
				}
			}
		}
	}
	total := 0.0
	for _, c := range st.clocks {
		if c > total {
			total = c
		}
	}
	rep := &trace.Report{Steps: st.steps, Total: total}
	return rep, st.firstErr
}

// handleDone records one processor goroutine's exit: its program
// returned (normally, with an error, or unwinding a crash/leave).
func (v *Virtual) handleDone(st *runState, req *vrequest) {
	st.done[req.pid] = true
	st.clocks[req.pid] += req.work
	v.stageSaves(st, req.pid, req.saves)
	st.running--
	if req.err != nil && st.firstErr == nil &&
		!errors.Is(req.err, errCrashStop) && !errors.Is(req.err, errLeave) {
		st.firstErr = req.err
	}
}

// quiesceDead blocks until every dead processor's goroutine has exited,
// draining its remaining requests meanwhile. A crash victim is resumed
// with its error and then unwinds user code — code that may read the
// tree (fault-tolerant collectives walk scope leaves to report their
// live view) — so the coordinator must not rebalance the tree while a
// corpse is still running. Safe to block here: at a completed global
// barrier every live processor is parked, so the only goroutines able
// to send requests are the unwinding dead, and their syncs resolve
// immediately (a dead requester never parks).
func (v *Virtual) quiesceDead(st *runState, ctxs []*vctx) {
	for {
		unwinding := false
		for pid := range st.led.dead {
			if !st.done[pid] {
				unwinding = true
				break
			}
		}
		if !unwinding {
			return
		}
		req := <-st.reqs
		switch req.kind {
		case 'd':
			v.handleDone(st, req)
		case 's':
			v.handleSync(st, ctxs, req)
		}
	}
}

// handleSync stamps, fault-checks and (if clean) parks one sync
// request. Three fault paths short-circuit the parking: the requester is
// already dead, the requester crash-stops now, or the requested scope
// holds dead members this requester has not yet been told about.
func (v *Virtual) handleSync(st *runState, ctxs []*vctx, req *vrequest) {
	pid := req.pid
	req.ord = st.syncOrd[pid]
	st.syncOrd[pid]++
	// Checkpoint saves ride every sync request, even one about to fail:
	// they are program state, not step data.
	v.stageSaves(st, pid, req.saves)

	if st.led.dead[pid] != nil {
		// A dead processor's program swallowed the crash error and
		// synced again; it stays dead.
		req.resume <- fmt.Errorf("%w (p%d)", errCrashStop, pid)
		return
	}
	if v.Chaos.CrashNow(pid, req.ord, st.clocks[pid]) {
		v.crash(st, ctxs, pid, req, "crash-stop")
		return
	}
	if v.Chaos.LeaveNow(pid, req.ord) {
		v.crash(st, ctxs, pid, req, "leave")
		return
	}
	if v.failSync(st, ctxs, req) {
		return
	}
	// Unlike a death, a join carries no detection charge: it is planned
	// at the cut, not detected by a deadline.
	if n := st.led.joinNotice(pid, req.scope); n != nil {
		ctxs[pid].membersView = st.led.members(pid)
		req.resume <- n
		return
	}
	st.pending[pid] = req
}

// stageSaves folds one processor's Save()d state into the run's staging
// area (awaiting a checkpoint commit boundary) and, when a schedule
// recorder is attached, into the run's observable final state.
func (v *Virtual) stageSaves(st *runState, pid int, saves map[string][]byte) {
	if len(saves) == 0 {
		return
	}
	if st.staged[pid] == nil {
		st.staged[pid] = make(map[string][]byte)
	}
	for k, b := range saves {
		st.staged[pid][k] = b
	}
	if v.rec != nil {
		v.rec.noteSaves(pid, saves)
	}
}

// crash marks the requester dead, discards its outbox (crash-stop loses
// the superstep in progress), purges messages addressed to it, and
// notifies every parked survivor whose scope contains it. An orderly
// leave (cause "leave") rides the same machinery: the departure is
// announced at the boundary and survivors shrink their barriers exactly
// as for a crash, but the victim unwinds with errLeave and the cause
// distinguishes churn from failure in every report.
func (v *Virtual) crash(st *runState, ctxs []*vctx, pid int, req *vrequest, cause string) {
	victimErr := errCrashStop
	fate := "crash"
	if cause == "leave" {
		victimErr, fate = errLeave, "leave"
	}
	v.Obsv.Chaos(fate, req.ord, pid, pid, st.clocks[pid])
	st.led.kill(pid, req.ord, cause)
	req.resume <- fmt.Errorf("%w (p%d at step %d)", victimErr, pid, req.ord)

	rest := st.undelivered[:0]
	for _, m := range st.undelivered {
		if m.dst != pid {
			rest = append(rest, m)
		}
	}
	st.undelivered = rest

	// A parked processor has acknowledged every earlier death on its
	// scope, so it owes a notice exactly when the scope contains the new
	// victim.
	for waiter, r := range st.pending {
		if r != nil && v.failSync(st, ctxs, r) {
			st.pending[waiter] = nil
		}
	}
}

// failSync delivers the requester's next dead-peer notice on its scope,
// if it owes one: the detection deadline is charged to its clock, its
// updated Failed view staged, and it resumes with the typed error.
func (v *Virtual) failSync(st *runState, ctxs []*vctx, req *vrequest) bool {
	n := st.led.deadNotice(req.pid, req.scope)
	if n == nil {
		return false
	}
	pid := req.pid
	st.clocks[pid] += v.detectCharge(st, pid, req.scope)
	ctxs[pid].clock = st.clocks[pid]
	ctxs[pid].failedView = st.led.failed(pid)
	req.resume <- n
	return true
}

// detectCharge is the failure-detection deadline on the virtual clock:
// DetectFactor × the predicted step cost (mean completed step time,
// falling back to the scope's L), doubling per successive detection by
// the same processor — the detector's backoff.
func (v *Virtual) detectCharge(st *runState, pid int, scope *model.Machine) float64 {
	factor := v.DetectFactor
	if factor <= 0 {
		factor = defaultDetectFactor
	}
	predicted := 0.0
	if st.stepN[pid] > 0 {
		predicted = st.stepSum[pid] / float64(st.stepN[pid])
	}
	if predicted < scope.SyncCost {
		predicted = scope.SyncCost
	}
	if predicted <= 0 {
		predicted = 1
	}
	backoff := uint(st.detectCount[pid])
	if backoff > 6 {
		backoff = 6
	}
	st.detectCount[pid]++
	return factor * predicted * float64(int(1)<<backoff)
}

// stuck reports whether all unfinished processors are blocked with no
// releasable scope.
func (v *Virtual) stuck(st *runState, running int) bool {
	blocked := 0
	for pid := range st.pending {
		if st.pending[pid] != nil {
			blocked++
		}
	}
	if blocked == 0 || blocked != running {
		return false
	}
	// A desync also occurs when a processor has exited while another
	// waits on a scope containing it; release() found nothing, so if
	// every live processor is blocked the run cannot progress.
	return true
}

func (v *Virtual) desyncError(st *runState) error {
	var parts []string
	for pid, r := range st.pending {
		if r != nil {
			parts = append(parts, fmt.Sprintf("p%d@%s(%s)", pid, r.scope.Label(), r.label))
		}
	}
	for pid, d := range st.done {
		if d {
			parts = append(parts, fmt.Sprintf("p%d:exited", pid))
		}
	}
	return fmt.Errorf("%w: %s", ErrDesync, strings.Join(parts, " "))
}

// release completes every scope whose entire live leaf set is pending
// on it. Dead processors are excluded: their failure has already been
// acknowledged by every pending member (handleSync parks a processor
// only on a scope whose dead members it has acknowledged).
func (v *Virtual) release(st *runState, ctxs []*vctx) {
	seen := map[*model.Machine]bool{}
	for pid := range st.pending {
		r := st.pending[pid]
		if r == nil || seen[r.scope] {
			continue
		}
		seen[r.scope] = true
		leaves := r.scope.Leaves()
		ready := true
		live := 0
		for _, l := range leaves {
			lp := v.tree.Pid(l)
			if !st.led.alive(lp) {
				continue
			}
			live++
			if q := st.pending[lp]; q == nil || q.scope != r.scope {
				ready = false
				break
			}
		}
		if ready && live > 0 {
			v.completeStep(st, ctxs, r.scope, leaves)
		}
	}
}

// completeStep charges and finishes one super^i-step over the scope's
// live participants.
func (v *Virtual) completeStep(st *runState, ctxs []*vctx, scope *model.Machine, leaves []*model.Machine) {
	var pids []int
	inScope := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		lp := v.tree.Pid(l)
		inScope[lp] = true
		if st.led.alive(lp) {
			pids = append(pids, lp)
		}
	}
	sort.Ints(pids)

	start := 0.0
	works := make(map[int]float64, len(pids))
	label := ""
	var outbox []pendingMsg
	for _, pid := range pids {
		r := st.pending[pid]
		if st.clocks[pid] > start {
			start = st.clocks[pid]
		}
		slow := v.Chaos.Slowdown(pid, r.ord)
		if slow != 1 {
			v.Obsv.Chaos("straggler", len(st.steps), pid, pid, st.clocks[pid])
		}
		works[pid] = r.work * slow
		if r.work > 0 {
			// Measured effective compute slowdown for the step: the
			// static slowdown times the transient straggler factor, the
			// reorganization subsystem's EWMA sample. Only observed on
			// the success path (a failed sync's work is dropped), which
			// is the same rule the concurrent engine applies — equal
			// seeds produce equal estimate streams on both engines.
			st.led.rer.Observe(pid, ctxs[pid].leaf.CompSlowdown*slow)
		}
		if label == "" {
			label = r.label
		}
		outbox = append(outbox, r.outbox...)
	}
	st.undelivered = append(st.undelivered, outbox...)

	// Every participant of a completing step resumes successfully, so
	// its previous inbox slice can be reclaimed for this step's staging.
	for _, pid := range pids {
		v.recycleSpent(st.pending[pid])
	}

	// Deliverable: both endpoints inside the scope, destination alive,
	// and any chaos delay expired. Fates are assigned at the first step
	// a message could deliver, so a delayed message is parked exactly
	// once.
	stepIdx := len(st.steps)
	var deliver []pendingMsg
	rest := st.undelivered[:0]
	for _, m := range st.undelivered {
		if !inScope[m.src] || !inScope[m.dst] {
			rest = append(rest, m)
			continue
		}
		if st.led.dormant[m.dst] {
			rest = append(rest, m) // not yet joined: hold until activation
			continue
		}
		if st.led.dead[m.dst] != nil {
			continue // addressed to a corpse: drop
		}
		if !m.fated {
			f := v.Chaos.MessageFate(m.src, m.dst, m.seq)
			m.fated, m.drop, m.dup = true, f.Drop, f.Duplicate
			if f.Delay > 0 {
				m.holdUntil = stepIdx + f.Delay
			}
			switch {
			case f.Drop:
				v.Obsv.Chaos("drop", stepIdx, m.src, m.dst, start)
			case f.Duplicate:
				v.Obsv.Chaos("duplicate", stepIdx, m.src, m.dst, start)
			case f.Delay > 0:
				v.Obsv.Chaos("delay", stepIdx, m.src, m.dst, start)
			}
		}
		if m.holdUntil > stepIdx {
			rest = append(rest, m)
			continue
		}
		deliver = append(deliver, m)
	}
	st.undelivered = rest

	// Dropped messages still consumed bandwidth; duplicates consume it
	// twice.
	var flows []cost.Flow
	for _, m := range deliver {
		flows = append(flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		if m.dup {
			flows = append(flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		}
	}
	res := v.fab.StepCost(scope, label, flows, works)
	end := start + res.Time
	for _, pid := range pids {
		st.stepSum[pid] += res.Time
		st.stepN[pid]++
	}

	if v.Obsv != nil {
		// Predicted T_i(λ) = w_i + g·h + L_{i,j} from the pure model;
		// the measured span (end - start) additionally carries configured
		// overheads, noise, and barrier-entry skew.
		pred := res.W + v.tree.G*res.H + res.Sync
		v.Obsv.Superstep(stepIdx, label, scope.Label(), scope.Level, start, end, pred, int64(res.Bytes))
		v.Obsv.HRelation(res.H)
		for _, pid := range pids {
			// st.clocks[pid] still holds the barrier-entry time; clocks
			// advance to end only when the step resumes below.
			v.Obsv.BarrierWait(stepIdx, pid, scope.Label(), scope.Level, st.clocks[pid], end)
		}
	}

	// Stage inboxes in sender/seq order — except under schedule
	// exploration, where permutation index > 0 replaces the canonical
	// order with a seeded shuffle (deliberately weaker than the model's
	// sorted-delivery guarantee, to surface order-dependent programs).
	if v.permIndex > 0 {
		shuffleDeliver(deliver, v.permSeed, v.permIndex, stepIdx)
	} else {
		sort.SliceStable(deliver, func(a, b int) bool {
			if deliver[a].src != deliver[b].src {
				return deliver[a].src < deliver[b].src
			}
			return deliver[a].seq < deliver[b].seq
		})
	}

	// Barrier edges for the happens-before checker: every participant's
	// post-barrier clock is the join of all participants' clocks, plus
	// its own local event.
	if v.Verify {
		merged := newVClock(len(ctxs))
		for _, pid := range pids {
			merged.join(ctxs[pid].vc)
		}
		for _, pid := range pids {
			vc := merged.clone()
			vc.tick(pid)
			ctxs[pid].vc = vc
		}
	}

	for _, m := range deliver {
		if m.drop {
			continue
		}
		copies := 1
		if m.dup {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if v.inboxes[m.dst] == nil {
				if n := len(v.inboxFree); n > 0 {
					v.inboxes[m.dst] = v.inboxFree[n-1]
					v.inboxFree = v.inboxFree[:n-1]
				}
			}
			v.Obsv.Delivery(stepIdx, m.src, m.dst, m.tag, int64(len(m.payload)), end)
			v.inboxes[m.dst] = append(v.inboxes[m.dst], Message{Src: m.src, Tag: m.tag, Payload: m.payload})
			if v.Verify {
				v.inmetas[m.dst] = append(v.inmetas[m.dst],
					msgMeta{src: m.src, tag: m.tag, stamp: m.stamp, sum: m.sum})
			}
			if v.rec != nil {
				v.rec.noteDelivery(m.dst, deliveryRec{
					step: stepIdx, src: m.src, tag: m.tag, n: len(m.payload), sum: payloadSum(m.payload),
				})
			}
		}
	}

	// Checkpoint commit at the global cadence: registered state of
	// every live participant is snapshotted, and the per-byte cost
	// lands on each processor's clock past the step's end.
	ckptMax := 0.0
	ckptCost := make(map[int]float64, len(pids))
	if scope == v.tree.Root {
		st.globalSteps++
		if v.Ckpt != nil && v.CheckpointEvery > 0 && st.globalSteps%v.CheckpointEvery == 0 {
			perByte := v.fab.Config().CheckpointByte
			for _, pid := range pids {
				n := v.Ckpt.commit(pid, st.globalSteps, st.staged[pid])
				st.staged[pid] = nil
				c := perByte * float64(n) * v.tree.Leaf(pid).CompSlowdown
				ckptCost[pid] = c
				if c > ckptMax {
					ckptMax = c
				}
			}
		}
		// The completed global barrier is the run's consistent cut: all
		// live processors are parked right here, so the ledger can
		// rebalance the tree and grow the membership with no program in
		// flight. An activated processor's clock starts at the cut.
		err := st.led.cut(st.globalSteps, end,
			func() { v.quiesceDead(st, ctxs) },
			func(pid int) {
				ctxs[pid].membersView = st.led.members(pid)
				ctxs[pid].failedView = st.led.failed(pid)
				st.clocks[pid] = end
				ctxs[pid].clock = end
				st.spawn(pid)
				st.running++
			})
		if err != nil && st.firstErr == nil {
			st.firstErr = err
		}
	}

	st.steps = append(st.steps, trace.Step{
		Index:        len(st.steps),
		Label:        label,
		ScopeLabel:   scope.Label(),
		ScopeName:    scope.Name,
		Level:        scope.Level,
		Participants: len(pids),
		W:            res.W,
		H:            res.H,
		Comm:         res.Comm,
		Sync:         res.Sync,
		Time:         res.Time,
		Ckpt:         ckptMax,
		Flows:        res.Flows,
		Bytes:        res.Bytes,
		GatingPid:    res.GatingPid,
		Imbalance:    res.Imbalance,
		Start:        start,
		End:          end,
	})

	for _, pid := range pids {
		st.clocks[pid] = end + ckptCost[pid]
		ctxs[pid].clock = st.clocks[pid]
		r := st.pending[pid]
		st.pending[pid] = nil
		r.resume <- nil
	}
}
