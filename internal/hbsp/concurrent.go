package hbsp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/trace"
)

// Concurrent executes programs with real parallelism on the pvm
// substrate: every processor is a spawned task, bulk messages travel
// through task mailboxes, and scoped barriers are pvm group barriers.
// Heterogeneity can be emulated by time dilation: Charge busy-spins for
// ops·CompSlowdown·TimeUnit of wall time.
//
// The engine reports wall-clock step times, so its numbers are
// machine-dependent and noisy; it exists to validate that programs are
// correct concurrent code and deliver exactly the same data as the
// virtual engine; its steps carry the model's terms, W, H and L, priced
// by cost.Terms as Virtual's are. Programs must be well-formed SPMD
// (every processor of a scope syncs on it the same number of times); a
// malformed program is
// converted from a silent deadlock into ErrDesync by an always-on
// watchdog: every Sync registers a per-scope sync-generation waiter,
// and when a waited scope can provably never complete — a member
// already exited, or every live processor has been parked at a barrier
// for DesyncTimeout with no barrier completing — the run is halted with
// a report naming the waiting and lagging processors.
//
// A Chaos plan injects crash-stops and message faults with the same
// taxonomy as the virtual engine: a scope member's death surfaces to
// every live member as ErrPeerFailed at the same per-scope sync
// generation (the dying processor cancels the barriers of already
// parked survivors; late arrivals see the dead set before parking), and
// subsequent Syncs on that scope complete over the survivors.
type Concurrent struct {
	tree *model.Tree
	// TimeUnit is the wall-clock duration of one fastest-machine work
	// unit for Charge; zero disables dilation.
	TimeUnit time.Duration
	// DesyncTimeout is how long every live processor must sit blocked at
	// barriers, with none completing, before the watchdog declares a
	// desync. Zero means the 2s default; negative disables the watchdog
	// entirely (the exited-member check included).
	DesyncTimeout time.Duration

	// The options shared with Virtual — Chaos, Ckpt, CheckpointEvery,
	// Obsv, Verify, ReorgEvery/Seed/Alpha, Plan — are coreOpts (proc.go).
	coreOpts

	// DetectFactor, when positive, arms a barrier-wait deadline of
	// DetectFactor × the observed mean barrier wait (EWMA), doubling
	// per successive timeout by the same processor. Expiry surfaces as
	// ErrTimeout: the peer's fate is unknown, unlike the definite
	// ErrPeerFailed of a detected crash. Off by default — crash
	// detection does not need it, it exists to model partitions.
	DetectFactor float64

	// Transport, when non-nil, builds the pvm transport each Run
	// attaches to its System (DESIGN.md §5.10) — a fresh instance per
	// run, closed when the run ends. Nil keeps the in-proc direct path.
	// A transport that severs mid-run surfaces as ErrPeerFailed with
	// cause "link lost", through the same shrink protocol as a crash.
	// A transport that is also a placement joins this process to the
	// others of one run: Run hosts only the pids it leaves local.
	Transport func() (pvm.Transport, error)
}

// placement is implemented by a transport whose System is one OS process
// of several running the same program on the same tree (wiretrans.Hub
// and Worker, DESIGN.md §5.10). Proxy returns nil for a TID whose
// processor runs here, and for any other the task to spawn in its place,
// so that TID == pid holds in every process. The program's bytes reach a
// remote pid through the transport and its barriers complete wherever
// the transport takes them (pvm.BarrierCarrier); the membership ledger,
// the cut windows and the desync watchdog see local pids only.
type placement interface {
	Proxy(tid pvm.TID) func(*pvm.Task) error
}

// defaultDesyncTimeout balances catching real deadlocks quickly against
// never firing on a healthy but heavily dilated run: the stall clock
// only advances while every live processor is inside a barrier wait, so
// long Charge phases cannot trip it.
const defaultDesyncTimeout = 2 * time.Second

// NewConcurrent returns a wall-clock engine for the tree.
func NewConcurrent(t *model.Tree) *Concurrent { return &Concurrent{tree: t} }

// cctx is the per-processor Ctx of the concurrent engine: the shared
// proc plus what moves its bytes (a pvm task and its peers) and what
// names its barriers (per-scope generations).
type cctx struct {
	proc
	eng  *Concurrent
	task *pvm.Task
	tids []pvm.TID

	// batch groups one superstep's outbox per destination, indexed by
	// pid, so each mailbox is appended under a single lock acquisition and
	// the whole superstep leaves in one post.
	batch []pvm.Batch
	// wait is the barrier wait Sync registers, rewritten every superstep.
	wait syncWait
	// scopes holds, by scope id, this processor's sync generation on each
	// scope — senders and receivers agree on a message tag per (scope,
	// generation) — and the scope's barrier name.
	scopes []scopeSeq
	// ord counts this processor's Sync calls across all scopes: the
	// chaos plan's per-processor step ordinal.
	ord int
	// work accumulates Charge()d ops times the compute slowdown since the
	// last Sync, as vctx does, captured at Sync entry and observed only if
	// the barrier succeeds (proc.observe). posted are the flows the last
	// flush sent, which enterSync deposits; works and flows are terms'.
	work   float64
	posted []cost.Flow
	works  []float64
	flows  []cost.Flow
	// rootDone counts this processor's successful root-scope syncs: the
	// engine-independent consistent-cut ordinal (a joiner starts at its
	// activation cut), driving checkpoint cadence and cut windows.
	rootDone int

	shared *crun
}

// scopeSeq is one processor's standing on one scope: its next sync
// generation there, and the scope's pvm barrier, held by reference. The
// name is built once and serves every generation — the barrier is cyclic,
// and the reference lets an arrival skip the System's barrier table — until
// what it was built for changes: the dead members this processor has
// acknowledged on the scope (a shrunken barrier must never collide with
// the pre-failure one, whose name a crash cancel has latched for good) or
// the reorganization epoch (a rebalance can move a dead leaf out of the
// scope, and the name must not fall back to a latched one). Every live
// member holds the same two at the same generation, so all compute the
// same name. A processor whose detection deadline expired on the scope
// has withdrawn from a generation its peers may still complete; from then
// on it names a barrier per generation there, as its peers do once their
// own deadlines expire, so a retry never completes somebody else's round.
type scopeSeq struct {
	gen      int
	bar      pvm.BarrierRef
	epoch    int
	dead     []int
	timedOut bool
	dep      [2]deposit
	kept     int
}

// deposit is a participant's work and posted flows for its step's
// recorder, at sync generation gen-1 (zero: none). dep[kept] is the one
// of the member's last completed barrier on the scope, which that step's
// recorder may still read until it arrives at the scope's next barrier;
// every later deposit goes in the other slot, however many generations
// notices burn meanwhile, so slots are found by generation, never by its
// parity (DESIGN.md §5.3).
type deposit struct {
	gen   atomic.Int64
	work  float64
	flows []cost.Flow
}

// put deposits work and *flows, which it swaps for the slot's old ones.
func (sc *scopeSeq) put(gen int, work float64, flows *[]cost.Flow) {
	d := &sc.dep[1-sc.kept]
	d.work = work
	d.flows, *flows = *flows, d.flows[:0]
	d.gen.Store(int64(gen) + 1)
}

// deposited returns the deposit for generation gen, nil for none.
func (sc *scopeSeq) deposited(gen int) *deposit {
	for i := range sc.dep {
		if sc.dep[i].gen.Load() == int64(gen)+1 {
			return &sc.dep[i]
		}
	}
	return nil
}

// barrierName builds the name a scopeSeq keeps.
func barrierName(scope string, epoch int, ackedDead []int, perGen bool, gen int) string {
	name := "sync:" + scope
	if epoch > 0 {
		name += "@" + strconv.Itoa(epoch)
	}
	if len(ackedDead) > 0 {
		name += fmt.Sprintf("!%v", ackedDead)
	}
	if perGen {
		name += "#" + strconv.Itoa(gen)
	}
	return name
}

// crun is the state shared by all processors of one Run.
type crun struct {
	mu    sync.Mutex
	sys   *pvm.System
	steps stepLog
	// ctxs holds each local processor's Ctx once it runs, proxies a
	// stand-in for each remote one.
	ctxs    []atomic.Pointer[cctx]
	proxies []func(*pvm.Task) error
	// scopeID numbers the tree's machines in preorder from 1 — the same in
	// every process that runs this tree — and is read-only once Run has
	// built it. Per-scope state below is indexed by it.
	scopeID map[*model.Machine]int
	started time.Time

	// Desync watchdog state, all under mu and indexed by pid: waiting is a
	// processor's current barrier wait (nil outside one; nwaiting counts
	// them), exited records returned processors (nexited of them),
	// progress counts barrier completions and exits (any increment proves
	// the run is still advancing), desync latches the watchdog's verdict.
	nprocs   int
	waiting  []*syncWait
	nwaiting int
	exited   []bool
	nexited  int
	progress uint64
	desync   error
	// arrived[pid][scope id] is the highest sync generation pid has reached
	// on that scope, -1 for none. An exited member is only lagging for a
	// waiter if it never arrived at the waiter's generation; without this,
	// a member exiting right after the final barrier would race a
	// still-parked waiter into a false desync.
	arrived [][]int

	// led is the run's membership ledger — dead, dormant and joined
	// processors, per-scope acknowledgments, reorg estimates, the cut —
	// and every call into it is made with mu held. unquiet latches, for
	// readers without mu, that the ledger has stopped being quiet (it
	// never is again). detectCount drives the optional deadline backoff;
	// waitEWMA tracks the mean successful barrier wait, the deadline's
	// prediction base.
	led         *ledger
	unquiet     atomic.Bool
	detectCount []int
	waitEWMA    time.Duration
	// exitc wakes a cut applier waiting for a crash victim's goroutine
	// to finish unwinding: a resumed victim still runs user code that
	// may read the tree, so the applier must not rebalance over it.
	// Signaled by markExited; waits under mu.
	exitc *sync.Cond

	// Generation registry, under mu: gens[scope id] is the next sync
	// generation of the scope (every Sync entry raises it). cutGens is
	// the applier's snapshot of it at the last cut, taken while every
	// live processor is parked inside the cut window; members re-align
	// their per-scope generations against it when they leave the window
	// (a rebalance can move a leaf under a scope it has never synced on)
	// and a joiner seeds its own from joinGens, the snapshot of its
	// activation cut. gates parks each dormant pid's pre-spawned task
	// until that cut.
	gens     []int
	cutGens  []int
	joinGens map[int][]int
	gates    map[int]chan struct{}
}

// syncWait describes one processor parked in Sync: the scope, its id and
// its label, this processor's sync generation for it, the member pids
// that must arrive for the barrier to complete, and the pvm barrier name
// (so a crashing member can cancel exactly this wait). A processor has
// one, rewritten at every Sync entry: others read it through crun.waiting
// under mu, and leaveLocked unregisters it before Sync returns.
type syncWait struct {
	key     *model.Machine
	id      int
	scope   string
	label   string
	gen     int
	members []int
	barrier string
}

// enterSync is a Sync's first visit to the run-wide state, and the
// survivor side of the crash protocol's serialization point. Under one
// critical section it either (a) consumes the next notice c owes on the
// scope — one dead member, or else the join batch — staging c's refreshed
// view and returning the typed error, or (b) registers the barrier wait
// and returns its live count and its optional detection deadline, with
// the barrier named for the acknowledged dead members of the scope (see
// scopeSeq), and deposits work and c's posted flows. A crashing member
// holds the same lock while it marks itself dead and collects parked
// waiters to cancel, so every survivor either parks before the cancel or
// sees the dead set here.
func (s *crun) enterSync(c *cctx, w *syncWait, sc *scopeSeq, work float64) (count int, deadline time.Duration, notice error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// gens tracks the scope's next generation regardless of the path
	// this sync takes: a notice-consumed generation is still burned.
	if w.gen+1 > s.gens[w.id] {
		s.gens[w.id] = w.gen + 1
	}

	if n := s.deadNoticeLocked(c, w.key); n != nil {
		return 0, 0, n
	}
	if n := s.led.joinNotice(c.pid, w.key); n != nil {
		c.membersView = s.led.members(c.pid)
		return 0, 0, n
	}

	// Every live member holds the same acknowledged dead set at the same
	// generation, so all survivors compute the same name and count.
	count, ackedDead := s.led.live(c.pid, w.key, w.members)
	if sc.bar.Name == "" || sc.timedOut || sc.epoch != s.led.epoch || !slices.Equal(sc.dead, ackedDead) {
		sc.bar = pvm.BarrierRef{Name: barrierName(w.scope, s.led.epoch, ackedDead, sc.timedOut, w.gen)}
		sc.epoch, sc.dead = s.led.epoch, ackedDead
	}
	w.barrier = sc.bar.Name
	sc.put(w.gen, work, &c.posted)
	s.waiting[c.pid] = w
	s.nwaiting++
	s.arrived[c.pid][w.id] = w.gen

	// The optional detection deadline: DetectFactor × the observed mean
	// barrier wait, doubling per successive timeout by this processor
	// (failure-detector backoff). No history yet, no deadline.
	if f := c.eng.DetectFactor; f > 0 && s.waitEWMA > 0 {
		backoff := min(s.detectCount[c.pid], 6)
		deadline = time.Duration(f * float64(s.waitEWMA) * float64(int(1)<<uint(backoff)))
	}
	return count, deadline, nil
}

// deadNoticeLocked consumes c's next dead-peer notice on the scope and
// stages its grown Failed view. Caller holds mu.
func (s *crun) deadNoticeLocked(c *cctx, scope *model.Machine) error {
	n := s.led.deadNotice(c.pid, scope)
	if n == nil {
		return nil
	}
	c.failedView = s.led.failed(c.pid)
	return n
}

// deadNotice is deadNoticeLocked for a survivor woken by a crash cancel
// or a lost link.
func (s *crun) deadNotice(c *cctx, scope *model.Machine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadNoticeLocked(c, scope)
}

// crashSelf is the victim side: mark pid dead under mu and collect the
// barrier names of parked survivors waiting on scopes containing pid,
// then cancel them outside the lock. Canceled waiters wake with
// ErrCanceled and convert it to ErrPeerFailed.
func (s *crun) crashSelf(pid, ord int, cause string) {
	s.mu.Lock()
	s.led.kill(pid, ord, cause)
	s.unquiet.Store(true)
	var cancel []string
	for waiter, w := range s.waiting {
		if w != nil && waiter != pid && slices.Contains(w.members, pid) {
			cancel = append(cancel, w.barrier)
		}
	}
	sys := s.sys
	s.mu.Unlock()
	for _, name := range cancel {
		sys.CancelBarrier(name)
	}
}

// leaveLocked unregisters pid's barrier wait, the barrier having returned
// after wait since the Sync began. Caller holds mu.
func (s *crun) leaveLocked(pid int, wait time.Duration) {
	s.waiting[pid] = nil
	s.nwaiting--
	s.progress++
	if wait > 0 {
		if s.waitEWMA == 0 {
			s.waitEWMA = wait
		} else {
			s.waitEWMA = (s.waitEWMA*4 + wait) / 5
		}
	}
}

// leaveSync is leaveLocked for a Sync that does not complete.
func (s *crun) leaveSync(pid int, wait time.Duration) {
	s.mu.Lock()
	s.leaveLocked(pid, wait)
	s.mu.Unlock()
}

func (s *crun) markExited(pid int) {
	s.mu.Lock()
	s.exited[pid] = true
	s.nexited++
	s.progress++
	s.exitc.Broadcast()
	// When the last non-dormant task exits, no cut window can ever run
	// again (appliers are live tasks), so never-activated joiners are
	// released: their gates close, and the waking tasks see no joined
	// record and return without running the program.
	var release []chan struct{}
	if s.nexited == s.nprocs-len(s.led.dormant) {
		for dp := range s.led.dormant {
			release = append(release, s.gates[dp])
		}
	}
	s.mu.Unlock()
	for _, g := range release {
		close(g)
	}
}

// deadUnwindingLocked reports whether any crash-stopped or departed
// processor's goroutine is still running user code. Caller holds mu.
func (s *crun) deadUnwindingLocked() bool {
	for pid := range s.led.dead {
		if !s.exited[pid] {
			return true
		}
	}
	return false
}

// watch polls the waiter registry until done closes. It declares a
// desync when a waited barrier can provably never complete:
//
//   - a member of a waited scope has already exited (deterministic, no
//     timeout involved), or
//   - every live processor has been parked at some barrier across a
//     full timeout window with no barrier completing in between —
//     barriers only complete through arrivals, and with nobody left to
//     arrive the run cannot advance.
//
// A chaos-killed member is not a desync: the victim's cancel already
// races ahead of the watchdog, which only re-cancels the waiter's
// barrier as a backstop. A pid that runs in another process (placement)
// is never waiting or exited here, so it is never judged lagging and the
// stall clock never starts on a run that has one.
//
// On a verdict it latches the structured error and halts the system,
// waking every parked barrier with ErrHalted.
func (s *crun) watch(sys *pvm.System, timeout time.Duration, done <-chan struct{}) {
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var (
		stallSince    time.Time
		stallProgress uint64
		stalled       bool
	)
	for {
		select {
		case <-done:
			return
		case now := <-ticker.C:
			s.mu.Lock()
			if s.desync != nil {
				s.mu.Unlock()
				return
			}
			cancel, err := s.exitedMemberDesync()
			if err != nil {
				s.desync = err
				s.mu.Unlock()
				sys.Halt()
				return
			}
			s.mu.Unlock()
			for _, name := range cancel {
				sys.CancelBarrier(name)
			}
			s.mu.Lock()
			// Dormant processors are parked by definition: their tasks
			// idle behind activation gates, so they never count as
			// missing arrivals.
			allParked := s.nwaiting > 0 && s.nwaiting+s.nexited+len(s.led.dormant) == s.nprocs
			if !allParked || !stalled || s.progress != stallProgress {
				stalled = allParked
				stallProgress = s.progress
				stallSince = now
				s.mu.Unlock()
				continue
			}
			if now.Sub(stallSince) < timeout {
				s.mu.Unlock()
				continue
			}
			s.desync = s.stallDesync()
			s.mu.Unlock()
			sys.Halt()
			return
		}
	}
}

// exitedMemberDesync reports a waited scope with an exited member, a
// barrier that can never complete. Chaos-killed members are not a
// program bug: their waiters' barriers are returned for cancellation
// (the failure path) instead of a desync verdict. Caller holds mu.
func (s *crun) exitedMemberDesync() (cancel []string, err error) {
	for pid, w := range s.waiting {
		if w == nil {
			continue
		}
		for _, m := range w.members {
			if s.exited[m] && s.arrived[m][w.id] < w.gen {
				if s.led.dead[m] != nil {
					// Only a barrier that has not yet acknowledged this
					// death can hang on it; an acked barrier counts live
					// members only and completes without the corpse.
					if !s.led.hasAcked(pid, w.key, m) {
						cancel = append(cancel, w.barrier)
					}
					continue
				}
				return nil, fmt.Errorf("%w: p%d waits on %s#%d(%s) but member p%d already exited",
					ErrDesync, pid, w.scope, w.gen, w.label, m)
			}
		}
	}
	return cancel, nil
}

// stallDesync builds the stalled-barriers report: who waits where, and
// which scope members lag. Caller holds mu.
func (s *crun) stallDesync() error {
	var waitParts, lagParts []string
	lagging := map[int]bool{}
	for pid, w := range s.waiting {
		if w == nil {
			continue
		}
		waitParts = append(waitParts, fmt.Sprintf("p%d@%s#%d(%s)", pid, w.scope, w.gen, w.label))
		for _, m := range w.members {
			mw := s.waiting[m]
			if mw == nil || mw.scope != w.scope || mw.gen != w.gen {
				lagging[m] = true
			}
		}
	}
	for pid := 0; pid < s.nprocs; pid++ {
		if !lagging[pid] {
			continue
		}
		switch {
		case s.exited[pid]:
			lagParts = append(lagParts, fmt.Sprintf("p%d:exited", pid))
		case s.waiting[pid] != nil:
			w := s.waiting[pid]
			lagParts = append(lagParts, fmt.Sprintf("p%d:at %s#%d(%s)", pid, w.scope, w.gen, w.label))
		default:
			lagParts = append(lagParts, fmt.Sprintf("p%d:not at a barrier", pid))
		}
	}
	msg := "waiting: " + strings.Join(waitParts, " ")
	if len(lagParts) > 0 {
		msg += "; lagging: " + strings.Join(lagParts, " ")
	}
	return fmt.Errorf("%w: %s", ErrDesync, msg)
}

func (c *cctx) Charge(ops float64) {
	if ops <= 0 {
		return
	}
	c.work += ops * c.leaf.CompSlowdown
	if c.eng.TimeUnit <= 0 {
		return
	}
	slow := c.opt.Chaos.Slowdown(c.pid, c.ord)
	d := time.Duration(ops * c.leaf.CompSlowdown * slow * float64(c.eng.TimeUnit))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		// Busy spin: emulated computation must consume CPU, not yield
		// it, to behave like the real slow machine.
	}
}

// wireTag encodes (scope id, generation) into a pvm tag so that messages
// of different supersteps never mix; generations wrap within 20 bits,
// far beyond any real run. The low 8 bits are zero. A user tag is no
// part of it: it travels in the message body as an int32 (packMsg).
func wireTag(scopeID, gen int) int {
	return scopeID<<28 | (gen&0xFFFFF)<<8
}

// Sync is one super^i-step of this processor: enter, flush the outbox,
// park at the scope's barrier, drain the delivery, commit. A steady-state
// Sync visits the run-wide state twice (enterSync, commit), arrives at the
// scope's barrier by reference, and reads the clock only where something
// uses the reading: the scope's live coordinator at the start and the end,
// for its step record; every processor at the start, the barrier exit and
// the end while an observer is set, which adds its own reads; and at the
// start and the barrier exit while DetectFactor arms the detection
// deadline, whose base is the barrier wait. A warm step of the other
// processors reads no clock.
func (c *cctx) Sync(scope *model.Machine, label string) error {
	if err := c.enter(scope); err != nil {
		return err
	}
	id := c.shared.scopeID[scope]
	sc := &c.scopes[id]
	ord, gen := c.ord, sc.gen
	c.ord++
	sc.gen++
	work := c.work
	c.work = 0
	// The views that elect the coordinator change only when a Sync consumes
	// a notice, and that Sync fails: whoever records this step if it
	// completes is known now.
	records := c.liveCoordinator(scope) == c.leaf
	start := c.clock(records || c.opt.Obsv != nil || c.eng.DetectFactor > 0)

	// The victim of a boundary fate flushes nothing it had queued, and
	// cancels the barriers of already parked members so they observe the
	// failure.
	if cause, victim := c.boundaryFate(ord, 0, micros(start)); victim != nil {
		c.shared.crashSelf(c.pid, ord, cause)
		return victim
	}

	w := &c.wait
	*w = syncWait{key: scope, id: id, scope: scope.Label(), label: label, gen: gen, members: scope.Pids()}
	tag := wireTag(id, gen)
	sent, err := c.flush(scope, ord, tag, micros(start))
	if err != nil {
		return err
	}
	count, deadline, notice := c.shared.enterSync(c, w, sc, work*c.opt.Chaos.Slowdown(c.pid, ord))
	if notice != nil {
		return notice
	}
	deposits, wait, err := c.park(w, sc, ord, count, deadline, start)
	if err != nil {
		c.shared.leaveSync(c.pid, wait)
		return c.barrierErr(err, w, sc)
	}
	sc.kept = 1 - sc.kept
	// All sends of this (scope, gen) happened before any barrier exit,
	// so the mailbox now holds the complete delivery.
	recv, err := c.drain(ord, tag, deposits)
	if err != nil {
		c.shared.leaveSync(c.pid, wait)
		return err
	}
	var step trace.Step
	if records {
		step = c.terms(w)
		step.Bytes = sent + recv // its own traffic, as hbsp.bytes_per_op reads it
	}
	return c.commit(w, ord, work > 0, records, start, wait, count, &step)
}

// terms prices the step the barrier just completed, for its recorder,
// without the lock: cost.Terms over its participants' deposits. A step
// with a member in another process, whose deposit never reaches here,
// has no terms (GatingPid -1) rather than a partial sum.
func (c *cctx) terms(w *syncWait) trace.Step {
	clear(c.works)
	c.flows = c.flows[:0]
	for _, pid := range w.members {
		if c.shared.proxies[pid] != nil {
			return trace.Step{GatingPid: -1}
		}
		// A dormant member has no Ctx yet, a dead one no deposit.
		if m := c.shared.ctxs[pid].Load(); m != nil {
			if d := m.scopes[w.id].deposited(w.gen); d != nil {
				c.works[pid] = d.work
				c.flows = append(c.flows, d.flows...)
			}
		}
	}
	return cost.Terms(c.tree, w.key, c.flows, c.works, nil)
}

// sendScratch draws SendScratch's n bytes from the wire arena.
func (c *cctx) sendScratch(n int) []byte {
	f := pvm.NewFrame(n)
	c.scratch = append(c.scratch, f)
	return f.Bytes()
}

// flush transmits every queued message whose endpoints are both inside
// the scope; the rest stay queued for a wider sync. Chaos fates are
// assigned at the first flush a message could take: dropped messages
// vanish, duplicates go twice, delayed ones stay queued until the
// sender's ordinal passes the hold. Messages to a dead destination are
// dropped. It lists what it posts in c.posted, and returns the payload
// bytes sent.
func (c *cctx) flush(scope *model.Machine, ord, tag int, now float64) (sent int, err error) {
	// Kept messages slide to the front of the outbox in send order; the
	// write index never passes the read index.
	kept := c.outbox[:0]
	c.posted = c.posted[:0]
	hold, dead := c.shared.unreachable(c, scope)
	for i := range c.outbox {
		m := c.outbox[i]
		// hold: the destination is not yet reachable at this generation
		// (see ledger.hold). Held messages flush on the retry sync,
		// landing at the same post-ack step the virtual engine delivers
		// them; their fate stays unassigned, as in the virtual engine.
		if !under(scope, c.tree.Leaf(m.dst)) || hold[m.dst] {
			kept = append(kept, m)
			continue
		}
		if c.opt.fate(&m, ord, now); m.holdUntil > ord {
			kept = append(kept, m)
			continue
		}
		if dead[m.dst] {
			continue
		}
		for n := m.copies(); n > 0; n-- {
			// Dropped, it still used the wire, as Virtual charges it.
			c.posted = append(c.posted, cost.Flow{Src: c.pid, Dst: m.dst, Bytes: len(m.payload)})
			if m.drop {
				continue
			}
			if c.batch == nil {
				c.batch = make([]pvm.Batch, c.NProcs())
				for pid := range c.batch {
					c.batch[pid].Dst = c.tids[pid]
				}
			}
			c.batch[m.dst].Bufs = append(c.batch[m.dst].Bufs, packMsg(&m, c.opt.Verify))
			sent += len(m.payload)
		}
	}
	// The flushed payloads must not stay reachable from the reused backing.
	clear(c.outbox[len(kept):])
	c.outbox = kept

	// One post for the superstep, a batch per destination in pid order —
	// a peer's traffic lands under a single lock acquisition, and a wire
	// transport writes all of it at once — then one Flush: the superstep
	// waits once for all of it to be observable.
	err = c.task.SendBatches(tag, c.batch)
	for pid := range c.batch {
		// Cleared, not just truncated: the backing array must not keep
		// the superstep's wires (an unpooled one is its whole payload)
		// reachable until the slots are overwritten.
		clear(c.batch[pid].Bufs)
		c.batch[pid].Bufs = c.batch[pid].Bufs[:0]
	}
	if err == nil {
		err = c.task.Flush()
	}
	if err != nil {
		err = c.linkLost(err, scope, ord)
	}
	return sent, err
}

// linkLost converts a send error that names a severed wire link into a
// detected peer failure: it runs the same shrink protocol as a crash, so
// every survivor of the scope observes ErrPeerFailed at one consistent
// generation and later Syncs complete over the remaining members. Any
// other send error passes through.
func (c *cctx) linkLost(sendErr error, scope *model.Machine, ord int) error {
	var de *pvm.DeliveryError
	if errors.Is(sendErr, pvm.ErrPeerLost) && errors.As(sendErr, &de) {
		if lost := slices.Index(c.tids, de.Dst); lost >= 0 && lost != c.pid {
			c.shared.crashSelf(lost, ord, "link lost")
			if n := c.shared.deadNotice(c, scope); n != nil {
				return n
			}
		}
	}
	return sendErr
}

// park blocks at the scope's barrier, arriving through the reference sc
// holds, until its count live members have arrived — under Verify every
// participant deposits its vector clock and gathers the others' — and
// returns how long the Sync has taken up to the barrier's exit: zero
// unless an observer or the detection deadline uses it.
func (c *cctx) park(w *syncWait, sc *scopeSeq, ord, count int, deadline, start time.Duration) (deposits map[pvm.TID][]byte, wait time.Duration, err error) {
	obs := c.opt.Obsv != nil
	var bEnter time.Duration
	if obs {
		bEnter = time.Since(c.shared.started)
	}
	var dep []byte
	if c.opt.Verify {
		// At its exact size, prefix and entries: nobody returns it.
		dep = pvm.Wrap(make([]byte, 0, 5+8*len(c.vc))).PackInt64Slice(c.vc.encodeInt64()).Bytes()
	}
	deposits, err = c.task.Arrive(&sc.bar, count, deadline, dep)
	if !obs && c.eng.DetectFactor <= 0 {
		return deposits, 0, err
	}
	bExit := time.Since(c.shared.started)
	if err == nil && obs {
		c.opt.Obsv.BarrierWait(ord, c.pid, w.scope, w.key.Level, micros(bEnter), micros(bExit))
	}
	return deposits, bExit - start, err
}

// barrierErr types a failed barrier wait: a cancel means a member
// crashed while this processor was parked, a timeout is the optional
// detection deadline, and a halt is the watchdog's desync verdict.
func (c *cctx) barrierErr(err error, w *syncWait, sc *scopeSeq) error {
	switch {
	case errors.Is(err, pvm.ErrCanceled):
		if n := c.shared.deadNotice(c, w.key); n != nil {
			return n
		}
	case errors.Is(err, pvm.ErrTimeout):
		sc.timedOut = true
		c.shared.mu.Lock()
		c.shared.detectCount[c.pid]++ // the next deadline doubles
		c.shared.mu.Unlock()
		return fmt.Errorf("hbsp: detection deadline on %s#%d(%s): %w", w.scope, w.gen, w.label, err)
	}
	return c.haltErr(err)
}

// drain joins the clocks the barrier gathered (Verify), retires the
// window before last, collects the superstep's complete delivery into the
// window, in (Src, send order), and opens it. It returns the payload bytes
// received.
func (c *cctx) drain(ord, tag int, deposits map[pvm.TID][]byte) (recv int, err error) {
	if c.opt.Verify {
		// Barriers double as the clock-join.
		for _, raw := range deposits {
			vs, err := pvm.Wrap(raw).UnpackInt64Slice()
			if err != nil {
				return 0, err
			}
			c.vc.join(decodeVClock(vs))
		}
		c.vc.tick(c.pid)
	}
	c.retire()
	c.wires = c.task.AppendRecvAll(c.wires, pvm.AnySource, tag)
	// Arrival order is already per-sender FIFO and tasks are spawned in
	// pid order, so a stable sort by sender TID — before decoding, which
	// keeps each message and its verification record together — yields
	// the (Src, send order) contract.
	slices.SortStableFunc(c.wires, func(a, b pvm.Message) int { return cmp.Compare(a.Src, b.Src) })
	c.resetWindow()
	if err := c.unpackWindow(); err != nil {
		return 0, err
	}
	var now float64
	if c.opt.Obsv != nil {
		now = c.nowMicros()
	}
	for _, m := range c.inbox {
		recv += len(m.Payload)
		c.opt.Obsv.Delivery(ord, m.Src, c.pid, m.Tag, int64(len(m.Payload)), now)
	}
	return recv, c.openWindow()
}

// commit finishes a successful superstep: the send scratch back to the
// arena once the outbox is empty, the compute sample, the checkpoint at
// the cut cadence, then — in the Sync's second and last visit to the
// run-wide state — the end of the barrier wait, the reorg estimate, the
// step record (when this processor records it: step holds its terms)
// and the cut verdict; and the cut window.
func (c *cctx) commit(w *syncWait, ord int, worked, records bool, start, wait time.Duration, count int, step *trace.Step) error {
	c.recycle()
	end := c.clock(records || c.opt.Obsv != nil)
	sample := 0.0
	c.observe(ord, ord, worked, micros(end), func(_ int, v float64) { sample = v })
	root := w.key == c.tree.Root
	if root {
		c.rootDone++
		if c.opt.ckptDue(c.rootDone) {
			c.commitStage(c.rootDone)
		}
	}
	s := c.shared
	s.mu.Lock()
	s.leaveLocked(c.pid, wait)
	if worked {
		s.led.rer.Observe(c.pid, sample)
	}
	if records {
		step.Participants = count
		step.Time, step.Start, step.End = micros(end-start), micros(start), micros(end)
		c.opt.record(&s.steps, w.key, w.label, step)
	}
	// Every participant of a global barrier computes the same cut verdict
	// — its ordinal is shared, ReorgEvery is config, and the dormant set
	// only changes inside cut windows.
	cut := root && s.led.cutDue(c.rootDone)
	s.mu.Unlock()

	// Cut window: when this global barrier's ordinal triggers a reorg
	// or an activation, every participant parks on a pair of cut
	// barriers while one applier rebalances the tree and opens joiner
	// gates. The step record above already read the pre-reorg layout,
	// so nothing reads the tree while the applier mutates it.
	if cut {
		return c.cutWindow(w.members, count)
	}
	return nil
}

// cutWindow serializes one consistent cut: cut:in waits until every
// participant has finished its post-barrier reads (deliveries, step
// record), the smallest live participant applies the cut, and cut:out
// holds everyone until the tree is stable again.
func (c *cctx) cutWindow(members []int, count int) error {
	R := c.rootDone
	if err := c.task.BarrierTimeout(fmt.Sprintf("cut:in#%d", R), count, 0); err != nil {
		return c.haltErr(err)
	}
	var applyErr error
	if c.shared.applierPid(members) == c.pid {
		applyErr = c.applyCut(R)
	}
	if err := c.task.BarrierTimeout(fmt.Sprintf("cut:out#%d", R), count, 0); err != nil {
		return c.haltErr(err)
	}
	// Re-align this processor's per-scope sync generations with the
	// cut's snapshot: a rebalance can move the leaf under a scope it has
	// never synced on, where peers already burned generations. The
	// snapshot — not the live registry — is what keeps this safe: fast
	// members leaving the window burn new generations concurrently, and
	// reading those here would push this processor's next barrier past
	// its peers'. Scope generations advance in lockstep across a scope's
	// members, so for scopes this processor already synced the
	// assignment is a no-op.
	c.shared.mu.Lock()
	snap := c.shared.cutGens
	c.shared.mu.Unlock()
	c.alignGens(snap)
	return applyErr
}

// alignGens raises this processor's per-scope sync generations to a
// cut's snapshot (a snapshot is never written after its cut).
func (c *cctx) alignGens(snap []int) {
	for id, g := range snap {
		if g > c.scopes[id].gen {
			c.scopes[id].gen = g
		}
	}
}

// haltErr surfaces the watchdog's structured desync report in place of
// the bare ErrHalted its Halt woke a barrier with.
func (c *cctx) haltErr(err error) error {
	if errors.Is(err, pvm.ErrHalted) {
		c.shared.mu.Lock()
		derr := c.shared.desync
		c.shared.mu.Unlock()
		if derr != nil {
			return derr
		}
	}
	return err
}

// applierPid picks the cut's single applier: the smallest live,
// non-dormant participant. Every participant computes the same answer —
// the dead set cannot grow while all scope members are inside the cut
// window (crashes fire only at Sync entry).
func (s *crun) applierPid(members []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	for _, m := range members {
		if s.led.alive(m) && (best < 0 || m < best) {
			best = m
		}
	}
	return best
}

// applyCut is the applier side of the cut window: the ledger's cut,
// under mu, with every live member parked between the cut barriers.
// The applier's collective depth decides whether a due reorganization
// waits.
// Unwinding victims are waited out on exitc — a dead requester's
// re-sync resolves immediately under mu, and its deferred markExited
// signals. An activated joiner's gate opens inside the cut, but its
// task blocks on mu until the snapshots below are in place.
func (c *cctx) applyCut(R int) error {
	s := c.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	var act []int
	err := s.led.cut(R, c.depth, c.nowMicros(),
		func() {
			for s.deadUnwindingLocked() {
				s.exitc.Wait()
			}
		},
		func(pid int) {
			act = append(act, pid)
			close(s.gates[pid])
		})
	if err != nil {
		return err
	}
	// Snapshot the generation registry while every live processor is
	// parked inside the cut window: members re-align their per-scope
	// generations against this stable copy after cut:out, and joiners
	// seed theirs from it.
	s.cutGens = slices.Clone(s.gens)
	for _, pid := range act {
		s.joinGens[pid] = s.cutGens
	}
	return nil
}

// micros converts an engine-relative duration to the microsecond time
// base the observability layer uses for wall-clock runs.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nowMicros is the processor's current time on the run clock.
func (c *cctx) nowMicros() float64 { return micros(time.Since(c.shared.started)) }

// clock is the time since the run started if on, else zero: a Sync reads
// the clock only for a consumer of the reading.
func (c *cctx) clock(on bool) time.Duration {
	if !on {
		return 0
	}
	return time.Since(c.shared.started)
}

// unreachable asks the ledger, once per flush and under one acquisition,
// which in-scope destinations of c's outbox cannot take it: hold[dst]
// (ledger.hold) keeps the message queued, dead[dst] drops it. Both are
// nil, and mu is not taken, while the ledger is quiet: a death that
// races the check would have raced the lock the same way.
func (s *crun) unreachable(c *cctx, scope *model.Machine) (hold, dead map[int]bool) {
	if len(c.outbox) == 0 || !s.unquiet.Load() {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hold, dead = make(map[int]bool), make(map[int]bool)
	for i := range c.outbox {
		switch dst := c.outbox[i].dst; {
		case !under(scope, c.tree.Leaf(dst)):
		case s.led.hold(c.pid, scope, dst):
			hold[dst] = true
		case s.led.dead[dst] != nil:
			dead[dst] = true
		}
	}
	return hold, dead
}

// liveCoordinator is the scope coordinator restricted to leaves this
// processor knows to be active members and not dead: the member that
// records the scope's steps, with coordinator failover, and with dormant
// (not-yet-joined) leaves excluded. Both views are generation-aligned
// across a scope's live members by the notice protocols, so exactly one
// participant claims the role.
func (c *cctx) liveCoordinator(scope *model.Machine) *model.Machine {
	if len(c.failedView) == 0 && len(c.membersView) == c.NProcs() {
		return scope.Coordinator()
	}
	return scope.CoordinatorAmong(func(m *model.Machine) bool {
		pid := c.tree.Pid(m)
		return slices.Contains(c.membersView, pid) && !slices.Contains(c.failedView, pid)
	})
}

// Run executes the program on every processor with real concurrency and
// returns a wall-clock report (times in microseconds). A tree that fails
// Validate is refused before anything starts. A chaos-injected
// crash-stop is not itself a run error: if the survivors complete, the
// run completes.
func (e *Concurrent) Run(prog Program) (*trace.Report, error) {
	if err := e.tree.Validate(); err != nil {
		return nil, err
	}
	p := e.tree.NProcs()
	sys := pvm.NewSystem()
	proxies := make([]func(*pvm.Task) error, p) // nil: the pid runs here
	spans := false
	if e.Transport != nil {
		tr, err := e.Transport()
		if err != nil {
			return nil, fmt.Errorf("hbsp: transport: %w", err)
		}
		if tr != nil {
			if err := sys.SetTransport(tr); err != nil {
				_ = tr.Close()
				return nil, fmt.Errorf("hbsp: transport attach: %w", err)
			}
			// LIFO: the transport outlives every deferred teardown below
			// (watchdog included), so pumps drain only after the tasks
			// are done sending.
			defer func() { _ = tr.Close() }()
			if pl, ok := tr.(placement); ok {
				for pid := range proxies {
					proxies[pid] = pl.Proxy(pvm.TID(pid))
					spans = spans || proxies[pid] != nil
				}

			}
		}
	}
	// What a fault, a join or a reorg sets in motion — dead sets and ack
	// generations, cut windows, gates — lives in this process's ledger;
	// a remote pid would never hear of it.
	if spans && (e.Chaos != nil || e.ReorgEvery > 0) {
		return nil, errors.New("hbsp: a chaos plan, churn or ReorgEvery on a run with remote pids: the membership ledger is process-local")
	}
	shared := &crun{
		sys:         sys,
		ctxs:        make([]atomic.Pointer[cctx], p),
		scopeID:     make(map[*model.Machine]int),
		started:     time.Now(),
		nprocs:      p,
		waiting:     make([]*syncWait, p),
		exited:      make([]bool, p),
		arrived:     make([][]int, p),
		led:         newLedger(e.tree, e.Chaos, e.Obsv, e.ReorgEvery, e.ReorgSeed),
		detectCount: make([]int, p),
		proxies:     proxies,
		joinGens:    make(map[int][]int),
		gates:       make(map[int]chan struct{}),
	}
	shared.exitc = sync.NewCond(&shared.mu)
	shared.unquiet.Store(!shared.led.quiet())
	e.tree.Root.Walk(func(m *model.Machine) { shared.scopeID[m] = len(shared.scopeID) + 1 })
	nscopes := len(shared.scopeID) + 1 // ids start at 1
	shared.gens = make([]int, nscopes)
	for pid := range shared.arrived {
		shared.arrived[pid] = make([]int, nscopes)
		for id := range shared.arrived[pid] {
			shared.arrived[pid][id] = -1
		}
	}
	// Elastic membership: processors with a churn JoinAt fate start
	// dormant behind a gate; their pre-spawned tasks idle until the
	// applier of their activation cut closes the gate (or until the run
	// ends without reaching it).
	for pid := range shared.led.dormant {
		shared.gates[pid] = make(chan struct{})
	}
	actives := shared.led.actives()

	timeout := e.DesyncTimeout
	if timeout == 0 {
		timeout = defaultDesyncTimeout
	}
	if timeout > 0 {
		done := make(chan struct{})
		defer close(done)
		go shared.watch(sys, timeout, done)
	}

	tids := make([]pvm.TID, p)
	ready := make(chan struct{})
	for pid := 0; pid < p; pid++ {
		pid := pid
		if proxies[pid] != nil {
			// Not markExited: whether a remote processor has returned is
			// not something this process's watchdog can know.
			tids[pid] = sys.Spawn(fmt.Sprintf("remote%d", pid), proxies[pid])
			continue
		}
		gate := shared.gates[pid]
		tids[pid] = sys.Spawn(fmt.Sprintf("proc%d", pid), func(t *pvm.Task) error {
			// markExited runs even on panic, so a crashed processor still
			// triggers the deterministic exited-member desync check.
			defer shared.markExited(pid)
			if gate != nil {
				// Dormant until the activation cut's applier closes the
				// gate. A gate closed by the last exiting active task
				// instead (no cut reached the join point) leaves no
				// joined record: the program never runs on this pid.
				<-gate
				shared.mu.Lock()
				_, activated := shared.led.joined[pid]
				shared.mu.Unlock()
				if !activated {
					return nil
				}
			} else {
				<-ready
			}
			c := &cctx{
				proc:   newProc(pid, e.tree, &e.coreOpts),
				eng:    e,
				task:   t,
				tids:   tids,
				scopes: make([]scopeSeq, nscopes),
				works:  make([]float64, p),
				shared: shared,
			}
			if gate != nil {
				// A newcomer's state starts at the activation cut: its
				// per-scope sync generations at the snapshot the applier
				// took, its membership and failure views as seeded, and
				// its cut ordinal at the activation point. The tree is
				// stable here — every old member is parked at cut:out
				// until the applier (which closed this gate last) exits
				// the window.
				shared.mu.Lock()
				c.rootDone = shared.led.joined[pid]
				c.membersView = shared.led.members(pid)
				c.failedView = shared.led.failed(pid)
				snap := shared.joinGens[pid]
				shared.mu.Unlock()
				c.alignGens(snap)
			} else {
				c.membersView = append([]int(nil), actives...)
			}
			shared.ctxs[pid].Store(c)
			err := prog(c)
			c.dropWindows()
			if errors.Is(err, errCrashStop) || errors.Is(err, errLeave) {
				// The victim's own crash or departure is the experiment,
				// not a program failure; the run's verdict belongs to
				// the survivors.
				return nil
			}
			if err != nil && spans {
				// The watchdog's exited-member check does not reach across
				// processes; halting does, through every proxy parked here.
				sys.Halt()
			}
			return err
		})
	}
	close(ready)
	err := sys.Wait()
	if err != nil && spans {
		// Across processes a hosted program's failure halts the run, and a
		// proxy's report of that teardown can reach the system first: the
		// program's own error is the verdict.
		for _, taskErr := range sys.Errors() {
			if !errors.Is(taskErr, pvm.ErrHalted) && !errors.Is(taskErr, pvm.ErrPeerLost) {
				err = taskErr
				break
			}
		}
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	// The watchdog's structured report beats the per-task ErrHalted noise
	// its Halt produced — but a nondeterminism verdict is the root cause
	// when a processor failed verification and left its peers stranded.
	if shared.desync != nil {
		err = shared.desync
		for _, taskErr := range sys.Errors() {
			var nd *ErrNondeterminism
			if errors.As(taskErr, &nd) {
				err = taskErr
				break
			}
		}
	}
	total := float64(time.Since(shared.started)) / float64(time.Microsecond)
	return &trace.Report{Steps: shared.steps.flat(), Total: total}, err
}
