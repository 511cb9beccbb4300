package hbsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/model"
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

	// The options shared with Concurrent — Chaos, Ckpt, CheckpointEvery,
	// Obsv, Verify, ReorgEvery/Seed/Alpha, Plan — are coreOpts (proc.go).
	coreOpts

	// DetectFactor scales the predicted step cost into the failure
	// detection deadline charged to each survivor when it learns of a
	// dead peer (zero means the default of 3). Repeated detections by
	// the same processor back off exponentially, like a real failure
	// detector widening its timeout.
	DetectFactor float64

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

type vrequest struct {
	pid    int
	kind   byte // 's' sync, 'd' done
	scope  *model.Machine
	label  string
	work   float64
	outbox []pendingMsg
	err    error
	resume chan error

	// ord is the processor's 0-based sync ordinal, stamped by the
	// engine when the request is handled.
	ord int
}

// vctx is the per-processor Ctx of the virtual engine. The coordinator
// writes the embedded proc's window, views, clock and checkpoint stage
// only while the processor is parked in Sync (or has exited); the
// request and resume channels order the handoff.
type vctx struct {
	proc
	reqs   chan<- *vrequest
	resume chan error

	work float64
	// clock is this processor's virtual time as of its last resume. The
	// engine advances it, and only while the processor is parked or
	// after it has exited (see obsvNow).
	clock float64
}

func (c *vctx) Charge(ops float64) {
	if ops > 0 {
		c.work += ops * c.leaf.CompSlowdown
	}
}

func (c *vctx) Sync(scope *model.Machine, label string) error {
	if err := c.enter(scope); err != nil {
		return err
	}
	req := &vrequest{
		pid: c.pid, kind: 's', scope: scope, label: label,
		work: c.work, outbox: c.outbox, resume: c.resume,
	}
	c.work = 0
	c.outbox = nil
	c.reqs <- req
	if err := <-c.resume; err != nil {
		return err
	}
	return c.openWindow()
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
			proc:   newProc(pid, v.tree, &v.coreOpts),
			reqs:   reqs,
			resume: make(chan error, 1),
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
				reqs <- &vrequest{pid: c.pid, kind: 'd', err: err, work: c.work}
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
	undelivered []pendingMsg
	steps       stepLog
	firstErr    error

	// led is the run's membership ledger: dead, dormant and joined
	// processors, per-scope acknowledgments, reorg estimates and the
	// global cut. The engine keeps what is about time and delivery.
	led *ledger

	// syncOrd counts each processor's Sync calls; detectCount drives the
	// detection-deadline backoff; globalSteps counts completed root-scope
	// supersteps (the checkpoint and cut cadence).
	syncOrd     []int
	detectCount []int
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

func (v *Virtual) coordinate(reqs chan *vrequest, ctxs []*vctx, led *ledger, spawn func(int), active int) (*trace.Report, error) {
	p := v.tree.NProcs()
	st := &runState{
		pending:     make([]*vrequest, p),
		done:        make([]bool, p),
		led:         led,
		syncOrd:     make([]int, p),
		detectCount: make([]int, p),
		stepSum:     make([]float64, p),
		stepN:       make([]int, p),
		spawn:       spawn,
		reqs:        reqs,
		running:     active,
	}
	for st.running > 0 {
		v.handle(st, ctxs, <-reqs)
		v.release(st, ctxs)
		if v.MaxSteps > 0 && st.steps.len() >= v.MaxSteps && st.firstErr == nil {
			st.firstErr = fmt.Errorf("%w: %d supersteps completed", ErrStepLimit, st.steps.len())
		}
		// Deadlock / desync detection: every live processor is blocked
		// in a sync and nothing released.
		if st.firstErr == nil && v.stuck(st) {
			st.firstErr = v.desyncError(st)
		}
		// On error, unblock every parked processor, now and whenever one
		// syncs afterwards.
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
	for _, c := range ctxs {
		total = max(total, c.clock)
	}
	rep := &trace.Report{Steps: st.steps.flat(), Total: total}
	return rep, st.firstErr
}

// handle takes one request off the channel. A 'd' records the
// processor goroutine's exit: its program returned (normally, with an
// error, or unwinding a crash/leave).
func (v *Virtual) handle(st *runState, ctxs []*vctx, req *vrequest) {
	if req.kind == 's' {
		v.handleSync(st, ctxs, req)
		return
	}
	st.done[req.pid] = true
	ctxs[req.pid].clock += req.work
	if v.rec != nil {
		v.rec.noteSaves(req.pid, ctxs[req.pid].ckptStage)
	}
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
		v.handle(st, ctxs, <-st.reqs)
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
	if st.led.dead[pid] != nil {
		// A dead processor's program swallowed the crash error and
		// synced again; it stays dead.
		req.resume <- fmt.Errorf("%w (p%d)", errCrashStop, pid)
		return
	}
	if cause, victim := ctxs[pid].boundaryFate(req.ord, ctxs[pid].clock, ctxs[pid].clock); victim != nil {
		v.crash(st, ctxs, req, cause, victim)
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

// crash marks the requester dead, discards its outbox (crash-stop loses
// the superstep in progress), purges messages addressed to it, and
// notifies every parked survivor whose scope contains it. An orderly
// leave (cause "leave") rides the same machinery: the departure is
// announced at the boundary and survivors shrink their barriers exactly
// as for a crash, but the victim unwinds with errLeave and the cause
// distinguishes churn from failure in every report.
func (v *Virtual) crash(st *runState, ctxs []*vctx, req *vrequest, cause string, victim error) {
	pid := req.pid
	st.led.kill(pid, req.ord, cause)
	req.resume <- victim

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
	ctxs[pid].clock += v.detectCharge(st, pid, req.scope)
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

// stuck reports whether every unfinished processor is blocked in a sync
// that release() could not complete — nobody is left to arrive, whether
// the rest wait on other scopes or have exited.
func (v *Virtual) stuck(st *runState) bool {
	blocked := 0
	for _, r := range st.pending {
		if r != nil {
			blocked++
		}
	}
	return blocked > 0 && blocked == st.running
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
		var pids []int
		ready := true
		for _, lp := range r.scope.Pids() {
			if !st.led.alive(lp) {
				continue
			}
			if q := st.pending[lp]; q == nil || q.scope != r.scope {
				ready = false
				break
			}
			pids = append(pids, lp)
		}
		if ready && len(pids) > 0 {
			v.completeStep(st, ctxs, r.scope, pids)
		}
	}
}

// completeStep charges and finishes one super^i-step over the scope's
// live participants (pids, ascending): route the h-relation, cost it,
// deliver it, checkpoint and cut at a global barrier, record, resume.
func (v *Virtual) completeStep(st *runState, ctxs []*vctx, scope *model.Machine, pids []int) {
	stepIdx := st.steps.len()
	start := 0.0
	works := make(map[int]float64, len(pids))
	label := ""
	for _, pid := range pids {
		r := st.pending[pid]
		c := ctxs[pid]
		start = max(start, c.clock)
		works[pid] = r.work * c.observe(r.ord, stepIdx, r.work > 0, c.clock, st.led.rer.Observe)
		if label == "" {
			label = r.label
		}
		st.undelivered = append(st.undelivered, r.outbox...)
	}
	deliver := v.route(st, scope, stepIdx, start)
	res, end := v.charge(st, ctxs, scope, label, deliver, works, pids, start)
	v.deliver(ctxs, pids, deliver, stepIdx, end)

	var ckptCost map[int]float64
	ckptMax := 0.0
	if scope == v.tree.Root {
		ckptCost, ckptMax = v.cut(st, ctxs, pids, end)
	}

	// Predicted T_i(λ) = w_i + g·h + L_{i,j} from the pure model; the
	// measured span (end - start) additionally carries configured
	// overheads, noise, and barrier-entry skew.
	v.record(&st.steps, scope, label, res.W+v.tree.G*res.H+res.Sync, trace.Step{
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
		ctxs[pid].clock = end + ckptCost[pid]
		r := st.pending[pid]
		st.pending[pid] = nil
		r.resume <- nil
	}
}

// route takes this step's h-relation out of the undelivered pool: both
// endpoints inside the scope, destination joined and alive, and any
// chaos delay expired. A message to a corpse is dropped; the rest stay
// queued for a wider or later step.
func (v *Virtual) route(st *runState, scope *model.Machine, stepIdx int, now float64) []pendingMsg {
	var deliver []pendingMsg
	rest := st.undelivered[:0]
	for _, m := range st.undelivered {
		if !under(scope, v.tree.Leaf(m.src)) || !under(scope, v.tree.Leaf(m.dst)) ||
			st.led.dormant[m.dst] { // dormant: hold until activation
			rest = append(rest, m)
			continue
		}
		if st.led.dead[m.dst] != nil {
			continue
		}
		if v.fate(&m, stepIdx, now); m.holdUntil > stepIdx {
			rest = append(rest, m)
			continue
		}
		deliver = append(deliver, m)
	}
	st.undelivered = rest
	return deliver
}

// charge costs the step on the fabric and reports the model's view of
// it. Dropped messages still consumed bandwidth; duplicates consume it
// twice.
func (v *Virtual) charge(st *runState, ctxs []*vctx, scope *model.Machine, label string, deliver []pendingMsg,
	works map[int]float64, pids []int, start float64) (res fabric.StepResult, end float64) {
	var flows []cost.Flow
	for _, m := range deliver {
		for n := m.copies(); n > 0; n-- {
			flows = append(flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		}
	}
	res = v.fab.StepCost(scope, label, flows, works)
	end = start + res.Time
	v.Obsv.HRelation(res.H)
	for _, pid := range pids {
		st.stepSum[pid] += res.Time
		st.stepN[pid]++
		if v.Obsv != nil {
			// The clock still holds the barrier-entry time; it advances
			// to end only when the step resumes.
			v.Obsv.BarrierWait(st.steps.len(), pid, scope.Label(), scope.Level, ctxs[pid].clock, end)
		}
	}
	return res, end
}

// deliver opens the barrier's edges and stages the step's messages into
// the participants' windows — every destination is a live participant,
// parked until this step resumes it. Participants resume successfully,
// so their previous windows are recycled here.
func (v *Virtual) deliver(ctxs []*vctx, pids []int, deliver []pendingMsg, stepIdx int, end float64) {
	// Sender/seq order — except under schedule exploration, where
	// permutation index > 0 replaces the canonical order with a seeded
	// shuffle (deliberately weaker than the model's sorted-delivery
	// guarantee, to surface order-dependent programs).
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

	for _, pid := range pids {
		ctxs[pid].resetWindow()
	}
	for _, m := range deliver {
		if m.drop {
			continue
		}
		for n := m.copies(); n > 0; n-- {
			v.Obsv.Delivery(stepIdx, m.src, m.dst, m.tag, int64(len(m.payload)), end)
			ctxs[m.dst].receive(Message{Src: m.src, Tag: m.tag, Payload: m.payload},
				msgMeta{src: m.src, tag: m.tag, stamp: m.stamp, sum: m.sum})
			if v.rec != nil {
				v.rec.noteDelivery(m.dst, deliveryRec{
					step: stepIdx, src: m.src, tag: m.tag, n: len(m.payload), sum: payloadSum(m.payload),
				})
			}
		}
	}
}

// cut runs what a completed global barrier triggers, and returns each
// participant's checkpoint charge and their maximum. At the checkpoint
// cadence the registered state of every live participant is
// snapshotted, and the per-byte cost lands on each processor's clock
// past the step's end. Then the barrier is the run's consistent cut:
// all live processors are parked right here, so the ledger can
// rebalance the tree and grow the membership with no program in flight.
// An activated processor's clock starts at the cut.
func (v *Virtual) cut(st *runState, ctxs []*vctx, pids []int, end float64) (ckptCost map[int]float64, ckptMax float64) {
	st.globalSteps++
	if v.ckptDue(st.globalSteps) {
		ckptCost = make(map[int]float64, len(pids))
		perByte := v.fab.Config().CheckpointByte
		for _, pid := range pids {
			// A stage only grows until a commit clears it, so the schedule
			// recorder sees every save by noting it here and at exit.
			if v.rec != nil {
				v.rec.noteSaves(pid, ctxs[pid].ckptStage)
			}
			n := ctxs[pid].commitStage(st.globalSteps)
			ckptCost[pid] = perByte * float64(n) * v.tree.Leaf(pid).CompSlowdown
			ckptMax = max(ckptMax, ckptCost[pid])
		}
	}
	err := st.led.cut(st.globalSteps, end,
		func() { v.quiesceDead(st, ctxs) },
		func(pid int) {
			ctxs[pid].membersView = st.led.members(pid)
			ctxs[pid].failedView = st.led.failed(pid)
			ctxs[pid].clock = end
			st.spawn(pid)
			st.running++
		})
	if err != nil && st.firstErr == nil {
		st.firstErr = err
	}
	return ckptCost, ckptMax
}
