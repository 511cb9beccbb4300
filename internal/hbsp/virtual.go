package hbsp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// Virtual executes programs under the HBSP^k cost model on a virtual
// clock. It is a sequential simulation: each processor's program has its
// own goroutine, for programming-model fidelity, but at any instant at
// most one of them is runnable (Run has the schedule). The order of
// everything a run produces — Report.Steps and every Index, the fabric's
// noise draws, the step counts chaos fates are held against, failure
// notices, every observability event including the programs' own — so
// follows from the machine, the program, the fabric seed and the chaos
// plan alone: two runs with the same four produce identical reports and
// event streams, on any tree.
//
// The price is one rule for programs: a processor waits for another only
// through Sync. A program that blocks on a peer any other way (a channel,
// a sync.WaitGroup, a spin on shared memory) waits for a goroutine that
// cannot run until it yields, and the run hangs.
type Virtual struct {
	tree *model.Tree
	fab  *fabric.Fabric

	// The options shared with Concurrent — Chaos, Obsv and Verify — are
	// coreOpts (proc.go).
	coreOpts

	// ReorgEvery, when positive, rebalances the machine tree at every
	// ReorgEvery-th completed global superstep (DESIGN.md §5.7): each
	// processor's measured effective compute slowdown is folded into an
	// EWMA estimate and, at the cut, the seeded model.PlanReorg is applied
	// in place — leaves permuted across slots, shares re-derived. The same
	// cut activates dormant joiners. The tree is mutated; use
	// Tree.SaveLayout/RestoreLayout (RunSchedules does) to replay from the
	// pristine layout. ReorgSeed drives the plan's tie-breaking; equal
	// seeds give equal schedules.
	ReorgEvery int
	ReorgSeed  int64

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

// NewVirtual returns an engine for the tree charging costs via fab,
// which must have been built for the same tree.
func NewVirtual(t *model.Tree, fab *fabric.Fabric) *Virtual {
	return &Virtual{tree: t, fab: fab}
}

// RunVirtual is a convenience wrapper: build a fabric with cfg and run.
func RunVirtual(t *model.Tree, cfg fabric.Config, prog Program) (*trace.Report, error) {
	return NewVirtual(t, fabric.New(t, cfg)).Run(prog)
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

	// ord is the processor's 0-based sync ordinal, stamped by the
	// engine when the request is handled.
	ord int
}

// vctx is the per-processor Ctx of the virtual engine. Program and
// coordinator pass one baton over two unbuffered channels — reqs takes
// the processor's next request up, resume brings the outcome down — so
// exactly one goroutine at a time touches the proc, work and clock.
type vctx struct {
	proc
	reqs   chan<- *vrequest
	resume chan error

	work float64
	// clock is this processor's virtual time as of its last resume.
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
	req := &vrequest{pid: c.pid, kind: 's', scope: scope, label: label, work: c.work, outbox: c.outbox}
	c.work = 0
	c.outbox = nil
	c.reqs <- req
	if err := <-c.resume; err != nil {
		return err
	}
	return c.openWindow()
}

// run is a processor's goroutine: it waits for its first baton, runs the
// program, and hands the baton back for good with its exit request.
func (c *vctx) run(prog Program) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hbsp: processor %d panicked: %v", c.pid, r)
		}
		// Work charged after the last sync is a trailing compute-only
		// step: it extends this processor's clock.
		c.reqs <- &vrequest{pid: c.pid, kind: 'd', err: err, work: c.work}
	}()
	<-c.resume
	err = prog(c)
}

// Run executes the program on every processor and returns the run's
// report. The error is the tree's Validate error, before anything
// starts; the first processor error; or ErrDesync-wrapped diagnostics
// for malformed synchronization. A chaos-injected
// crash-stop is not itself a run error: if the survivors complete, the
// run completes (their view of the failure arrived as ErrPeerFailed
// from Sync, which a fault-tolerant program may absorb).
//
// The schedule: while the run queue holds a processor, the smallest pid
// on it gets the baton and runs to its next Sync or its exit, which the
// coordinator handles before anyone else moves — the processor parks, or
// is owed an immediate resume (a notice, the run's error) and is queued
// again. Only with the queue empty, every live processor parked, does
// release complete supersteps; the processors it resumes are the next
// queue.
func (v *Virtual) Run(prog Program) (*trace.Report, error) {
	if err := v.tree.Validate(); err != nil {
		return nil, err
	}
	p := v.tree.NProcs()
	reqs := make(chan *vrequest)
	st := &runState{
		prog:       prog,
		ctxs:       make([]*vctx, p),
		wake:       make([]error, p),
		pending:    make([]*vrequest, p),
		done:       make([]bool, p),
		led:        newElastic(v.tree, v.Chaos, v.Obsv, v.ReorgEvery, v.ReorgSeed),
		syncOrd:    make([]int, p),
		detections: make([]int, p),
		stepSum:    make([]float64, p),
		stepN:      make([]int, p),
		works:      make([]float64, p),
	}
	for pid := range st.ctxs {
		st.ctxs[pid] = &vctx{proc: newProc(pid, v.tree, &v.coreOpts), reqs: reqs, resume: make(chan error)}
		if v.rec != nil {
			st.ctxs[pid].saved = make(map[string][]byte)
		}
	}
	// Elastic membership: processors with a churn JoinAt fate stay
	// dormant until the membership cut after that many completed global
	// supersteps starts them.
	actives := st.led.actives()
	for _, pid := range actives {
		st.ctxs[pid].membersView = actives
		st.start(pid)
	}
	for st.running > 0 {
		if len(st.runq) == 0 {
			v.release(st) // queues a step's participants, or everyone with the desync
		}
		pid := st.runq[0]
		st.runq = st.runq[1:]
		st.ctxs[pid].resume <- st.wake[pid]
		v.handle(st, <-reqs)
	}
	total := 0.0
	for _, c := range st.ctxs {
		total = max(total, c.clock)
	}
	return &trace.Report{Steps: st.steps.flat(), Total: total}, st.firstErr
}

// engine-side run state (recreated per Run; Virtual is not reusable
// concurrently but may be reused serially).
type runState struct {
	prog Program
	ctxs []*vctx

	// runq lists, ascending, the processors owed a start or a resume;
	// wake[pid] is what a queued processor's Sync returns. running counts
	// the goroutines started and not yet exited.
	runq    []int
	wake    []error
	running int

	pending     []*vrequest // by pid, nil = not parked
	done        []bool
	undelivered []pendingMsg
	steps       stepLog
	firstErr    error

	// led is the run's membership ledger: dead, dormant and joined
	// processors, per-scope acknowledgments, reorg estimates and the
	// global cut. The engine keeps what is about time and delivery.
	led *elastic

	// syncOrd counts each processor's Sync calls; detections drives the
	// detection-deadline backoff; globalSteps counts completed root-scope
	// supersteps (the cut cadence).
	syncOrd     []int
	detections  []int
	globalSteps int

	// stepSum/stepN track each processor's mean completed step time,
	// the cost model's prediction base for its detection deadlines.
	stepSum []float64
	stepN   []int
	// works (by pid) and flows are completeStep's scratch.
	works []float64
	flows []cost.Flow
}

// owe queues pid to resume from its Sync with err.
func (st *runState) owe(pid int, err error) {
	i, _ := slices.BinarySearch(st.runq, pid)
	st.runq = slices.Insert(st.runq, i, pid)
	st.wake[pid] = err
}

// start creates pid's goroutine and queues its first baton.
func (st *runState) start(pid int) {
	go st.ctxs[pid].run(st.prog)
	st.running++
	st.owe(pid, nil)
}

// abort records the run's first error and resumes every parked processor
// with it; a processor that syncs afterwards gets it at once.
func (st *runState) abort(err error) {
	if st.firstErr != nil {
		return
	}
	st.firstErr = err
	for pid, r := range st.pending {
		if r != nil {
			st.pending[pid] = nil
			st.owe(pid, err)
		}
	}
}

// handle takes the baton back with the processor's request. A 'd' is the
// goroutine's exit: its program returned (normally, with an error, or
// unwinding a crash/leave).
func (v *Virtual) handle(st *runState, req *vrequest) {
	if req.kind == 's' {
		v.handleSync(st, req)
		return
	}
	c := st.ctxs[req.pid]
	st.done[req.pid] = true
	c.clock += req.work
	if v.rec != nil {
		v.rec.saves[req.pid] = c.saved
	}
	st.running--
	if req.err != nil && !errors.Is(req.err, errCrashStop) && !errors.Is(req.err, errLeave) {
		st.abort(req.err)
	}
}

// handleSync stamps, fault-checks and (if clean) parks one sync
// request. The fault paths resume the requester instead: it is already
// dead, it crash-stops now, the requested scope holds dead or joined
// members it has not yet been told about, or the run has failed.
func (v *Virtual) handleSync(st *runState, req *vrequest) {
	pid, c := req.pid, st.ctxs[req.pid]
	req.ord = st.syncOrd[pid]
	st.syncOrd[pid]++
	if st.led.dead[pid] != nil {
		// A dead processor's program swallowed the crash error and
		// synced again; it stays dead.
		st.owe(pid, fmt.Errorf("%w (p%d)", errCrashStop, pid))
		return
	}
	if cause, victim := c.boundaryFate(req.ord, c.clock, c.clock); victim != nil {
		v.crash(st, req, cause, victim)
		return
	}
	if v.failSync(st, req) {
		return
	}
	// Unlike a death, a join carries no detection charge: it is planned
	// at the cut, not detected by a deadline.
	if n := st.led.joinNotice(pid, req.scope); n != nil {
		c.membersView = st.led.members(pid)
		st.owe(pid, n)
		return
	}
	if st.firstErr != nil {
		st.owe(pid, st.firstErr)
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
func (v *Virtual) crash(st *runState, req *vrequest, cause string, victim error) {
	pid := req.pid
	st.led.kill(pid, req.ord, cause)
	st.owe(pid, victim)

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
		if r != nil && v.failSync(st, r) {
			st.pending[waiter] = nil
		}
	}
}

// failSync delivers the requester's next dead-peer notice on its scope,
// if it owes one: the detection deadline is charged to its clock, its
// updated Failed view staged, and it resumes with the typed error.
func (v *Virtual) failSync(st *runState, req *vrequest) bool {
	n := st.led.deadNotice(req.pid, req.scope)
	if n == nil {
		return false
	}
	pid, c := req.pid, st.ctxs[req.pid]
	c.clock += v.detectCharge(st, pid, req.scope)
	c.failedView = st.led.failed(pid)
	st.owe(pid, n)
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
	predicted = max(predicted, scope.SyncCost)
	if predicted <= 0 {
		predicted = 1
	}
	backoff := min(st.detections[pid], 6)
	st.detections[pid]++
	return factor * predicted * float64(int(1)<<backoff)
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

// release runs with the baton home and nobody to hand it to: every live
// processor is parked. It completes every scope whose live members are
// all parked on it — such scopes share no processor — in tree preorder.
// Dead processors are excluded: their failure has already been
// acknowledged by every parked member (handleSync parks a processor only
// on a scope whose dead members it has acknowledged). Nothing to
// complete is the desync: nobody is left to arrive, whether the rest
// wait on other scopes or have exited.
func (v *Virtual) release(st *runState) {
	completed := false
	// Completing a step parks nobody, so it readies no scope the walk has
	// yet to reach; a root step, whose cut may reshape the tree under the
	// walk, leaves none ready at all.
	v.tree.Root.Walk(func(scope *model.Machine) {
		var pids []int
		for _, pid := range scope.Pids() {
			if !st.led.alive(pid) {
				continue
			}
			if r := st.pending[pid]; r == nil || r.scope != scope {
				return
			}
			pids = append(pids, pid)
		}
		if len(pids) == 0 {
			return
		}
		completed = true
		v.completeStep(st, scope, pids)
	})
	if !completed {
		st.abort(v.desyncError(st))
	}
}

// completeStep charges and finishes one super^i-step over the scope's
// live participants (pids, ascending): route the h-relation, cost it (a
// dropped message still used the wire, a duplicate twice), deliver it,
// cut at a global barrier, record, resume.
func (v *Virtual) completeStep(st *runState, scope *model.Machine, pids []int) {
	ctxs := st.ctxs
	stepIdx := st.steps.len()
	start := 0.0
	label := ""
	clear(st.works)
	for _, pid := range pids {
		r := st.pending[pid]
		c := ctxs[pid]
		start = max(start, c.clock)
		slow := c.observe(r.ord, stepIdx, c.clock)
		if r.work > 0 {
			// The measured effective slowdown, static times transient,
			// feeds the reorganization estimate.
			st.led.rer.Observe(pid, c.leaf.CompSlowdown*slow)
		}
		st.works[pid] = r.work * slow
		if label == "" {
			label = r.label
		}
		st.undelivered = append(st.undelivered, r.outbox...)
	}
	deliver := v.route(st, scope, stepIdx, start)
	st.flows = st.flows[:0]
	for _, m := range deliver {
		for n := m.copies(); n > 0; n-- {
			st.flows = append(st.flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		}
	}
	step, time := v.fab.StepCost(scope, st.flows, st.works)
	end := start + time
	v.Obsv.HRelation(step.H)
	for _, pid := range pids {
		st.stepSum[pid] += time
		st.stepN[pid]++
		if v.Obsv != nil {
			// The clock still holds the barrier-entry time; it advances
			// to end only when the step resumes.
			v.Obsv.BarrierWait(stepIdx, pid, scope.Label(), scope.Level, ctxs[pid].clock, end)
		}
	}
	v.deliver(ctxs, pids, deliver, stepIdx, end)

	if scope == v.tree.Root {
		v.cut(st, pids, end)
	}
	// The measured span (end - start) carries, beyond the pure model's
	// terms, configured overheads, noise, and barrier-entry skew.
	step.Participants = len(pids)
	v.record(&st.steps, scope, label, &step, time, start, end)

	for _, pid := range pids {
		ctxs[pid].clock = end
		st.pending[pid] = nil
		st.owe(pid, nil)
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

// cut runs what a completed global barrier triggers: the barrier is the
// run's consistent cut — every goroutine is parked or gone, a crash
// victim's too, which has finished unwinding — so the ledger can
// rebalance the tree and grow the membership with no program in flight.
// The smallest participant's collective depth decides whether a due
// reorganization waits. An activated processor's clock starts at the
// cut.
func (v *Virtual) cut(st *runState, pids []int, end float64) {
	st.globalSteps++
	err := st.led.cut(st.globalSteps, st.ctxs[pids[0]].depth, end, func(pid int) {
		c := st.ctxs[pid]
		c.membersView = st.led.members(pid)
		c.failedView = st.led.failed(pid)
		c.clock = end
		st.start(pid)
	})
	if err != nil && st.firstErr == nil {
		st.firstErr = err
	}
}
