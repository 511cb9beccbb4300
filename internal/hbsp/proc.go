package hbsp

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/pvm"
	"hbspk/internal/trace"
)

// coreOpts are the knobs whose meaning is the same on both engines,
// embedded by Virtual and Concurrent so that callers set them as engine
// fields. Where the engines differ in how a knob is charged or timed,
// the field says so.
type coreOpts struct {
	// Chaos, when non-nil, injects the plan's faults: crash-stops and
	// orderly leaves at sync boundaries, per-message drop/duplicate/delay
	// fates, and straggler bursts multiplying charged work. Fates hash
	// message identities, so equal plans fate the same messages on both
	// engines. On Virtual the plan composes with the fabric's noise model,
	// and a delay parks a message for that many completed supersteps; on
	// Concurrent AtTime crashes do not apply (there is no virtual clock),
	// and a delay parks a message for that many of the sender's sync
	// ordinals.
	Chaos *fabric.ChaosPlan

	// Obsv, when non-nil, receives structured spans and metrics for the
	// run: superstep spans, per-processor barrier waits, sampled message
	// deliveries, and chaos injections. A superstep span carries the
	// model's T_i beside the step's time: charged, on Virtual's clock;
	// measured by the scope's live coordinator, on Concurrent, in
	// microseconds since the run started.
	Obsv *obsv.Recorder

	// Verify arms the happens-before checker (DESIGN.md §5.3): every
	// message carries the sender's vector clock and a payload checksum
	// (on the wire, for Concurrent), barriers join clocks (a deposit
	// exchange, for Concurrent), and a read that is not ordered after its
	// send — or a payload that changed after Send — fails the processor
	// with a typed *ErrNondeterminism. Stamping is charged nothing:
	// verification is a harness, not part of the modeled protocol.
	Verify bool
}

type pendingMsg struct {
	src, dst, tag int
	payload       []byte
	seq           int

	// Chaos bookkeeping: fate is computed once, at the first step the
	// message would otherwise deliver; holdUntil parks a delayed
	// message until the given step (Virtual: completed-step count;
	// Concurrent: the sender's sync ordinal).
	fated     bool
	drop, dup bool
	holdUntil int

	// Verification stamp: the sender's vector clock and payload
	// checksum at Send time (Verify mode only).
	stamp VClock
	sum   uint64
}

// copies is how often the message travels: a chaos duplicate goes twice.
func (m *pendingMsg) copies() int {
	if m.dup {
		return 2
	}
	return 1
}

// proc is the per-processor half of a super^i-step that does not depend
// on how time advances or how bytes move: identity, the outbox and the
// delivery window, the views the notice protocol stages, the saved
// state, and the Verify clock. Both engines' Ctx embed it; each adds
// its own Charge and Sync. It deliberately has no Sync method — the
// analyzers recognize a Ctx structurally by Pid + Sync, and the engine
// core is not a program.
type proc struct {
	pid  int
	leaf *model.Machine
	tree *model.Tree
	opt  *coreOpts

	outbox []pendingMsg
	inbox  []Message
	seq    int

	// wires are the drained messages the window's payloads alias and held
	// those of the window before it (Concurrent only; Virtual hands a
	// receiver the sender's own slice): delivered bytes live two Syncs.
	// Under Verify, poisoned are those of the window before that.
	wires, held, poisoned []pvm.Message
	// scratch is SendScratch's draws since the outbox was last empty
	// (Concurrent only); under Verify spoiled is the poisoned draws before.
	scratch, spoiled []pvm.Frame

	// failedView is the dead-pid set this processor has acknowledged,
	// staged by the engine whenever a notice is consumed.
	failedView []int
	// saved holds the Save()d state, by key, as last saved. Only a
	// recording Virtual (RunSchedules) makes it; elsewhere Save is a
	// no-op.
	saved map[string][]byte

	// Verification state (Verify mode): vc is this processor's vector
	// clock, inmeta parallels inbox, steps counts completed Syncs.
	vc     VClock
	inmeta []msgMeta
	steps  int

	// depth counts the collectives this processor is inside (Span);
	// Virtual's global cut reads it to defer a reorganization (elastic.cut).
	// leave lowers it: Span's closer, built once.
	depth int
	leave func(int)
}

func newProc(pid int, t *model.Tree, opt *coreOpts) proc {
	p := proc{pid: pid, leaf: t.Leaf(pid), tree: t, opt: opt}
	if opt.Verify {
		p.vc = newVClock(t.NProcs())
	}
	return p
}

func (p *proc) Pid() int             { return p.pid }
func (p *proc) NProcs() int          { return p.tree.NProcs() }
func (p *proc) Tree() *model.Tree    { return p.tree }
func (p *proc) Self() *model.Machine { return p.leaf }
func (p *proc) Moves() []Message     { return p.inbox }
func (p *proc) Failed() []int        { return append([]int(nil), p.failedView...) }

func (p *proc) core() *proc { return p }

func (p *proc) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= p.NProcs() {
		return fmt.Errorf("hbsp: send to pid %d of %d", dst, p.NProcs())
	}
	if tag != int(int32(tag)) {
		return fmt.Errorf("hbsp: send with tag %d, outside the int32 range", tag)
	}
	p.seq++
	m := pendingMsg{src: p.pid, dst: dst, tag: tag, payload: payload, seq: p.seq}
	if p.opt.Verify {
		m.stamp = p.vc.clone()
		m.sum = payloadSum(payload)
	}
	p.outbox = append(p.outbox, m)
	return nil
}

func (p *proc) Save(key string, data []byte) {
	if p.saved != nil {
		p.saved[key] = append([]byte(nil), data...)
	}
}

// under reports whether scope is leaf or one of its ancestors.
func under(scope, leaf *model.Machine) bool {
	for m := leaf; m != nil; m = m.Parent() {
		if m == scope {
			return true
		}
	}
	return false
}

// enter is the Sync-entry rule of both engines, checked before any state
// changes — no chaos ordinal consumed, no generation burned, no charged
// work dropped — so a program that absorbs the rejection is still
// aligned with its peers. The scope must be this processor's leaf or an
// ancestor of it; and under Verify the closing barrier ends the window
// in which this superstep was entitled to read its inbox, so the
// payloads must still hash to their delivery stamps.
func (p *proc) enter(scope *model.Machine) error {
	if scope == nil {
		return errors.New("hbsp: Sync with nil scope")
	}
	if !under(scope, p.leaf) {
		return fmt.Errorf("hbsp: processor %d syncing on foreign scope %s", p.pid, scope.Label())
	}
	if p.opt.Verify {
		if nd := recheckWindow(p.pid, p.steps, p.inbox, p.inmeta); nd != nil {
			return nd
		}
	}
	return nil
}

// resetWindow empties the delivery window for the next superstep,
// zeroing the vacated slots so no payload stays reachable from the
// reused backing. Engines call it only once a barrier has succeeded: a
// sync that fails leaves the previous window readable (fault-tolerant
// programs re-read Moves after ErrPeerFailed).
func (p *proc) resetWindow() {
	clear(p.inbox)
	p.inbox, p.inmeta = p.inbox[:0], p.inmeta[:0]
}

// receive appends one delivered message to the window.
func (p *proc) receive(m Message, meta msgMeta) {
	p.inbox = append(p.inbox, m)
	if p.opt.Verify {
		p.inmeta = append(p.inmeta, meta)
	}
}

// openWindow opens the delivered window to the program after a
// successful barrier: under Verify every message's send must
// happen-before this read on the (already joined) clock, and its payload
// must still hash to the sender's stamp.
func (p *proc) openWindow() error {
	p.steps++
	if !p.opt.Verify {
		return nil
	}
	for i, m := range p.inbox {
		if nd := checkDelivery(p.pid, p.steps, m, p.inmeta[i], p.vc); nd != nil {
			return nd
		}
	}
	return nil
}

// boundaryFate is the chaos verdict on this processor's ord-th Sync: a
// crash-stop victim dies at the boundary, losing the superstep in
// progress, and an orderly departure rides the same machinery under a
// distinct cause, so survivors shrink their barriers exactly as for a
// crash but read "leave" in the report. The engine kills the victim in
// its ledger under the returned cause and unwinds it with the typed
// error; both are zero when the processor lives on. clock is what AtTime
// crashes compare against (zero without a virtual clock).
func (p *proc) boundaryFate(ord int, clock, now float64) (cause string, victim error) {
	fate := "crash"
	switch {
	case p.opt.Chaos.CrashNow(p.pid, ord, clock):
		cause, victim = "crash-stop", errCrashStop
	case p.opt.Chaos.LeaveNow(p.pid, ord):
		cause, victim, fate = "leave", errLeave, "leave"
	default:
		return "", nil
	}
	p.opt.Obsv.Chaos(fate, ord, p.pid, p.pid, now)
	return cause, fmt.Errorf("%w (p%d at step %d)", victim, p.pid, ord)
}

// fate assigns a message its chaos fate, once, at the first step it
// could deliver: at is that step on the engine's hold clock (see
// pendingMsg.holdUntil), so a delayed message is parked exactly once.
func (o *coreOpts) fate(m *pendingMsg, at int, now float64) {
	if m.fated {
		return
	}
	f := o.Chaos.MessageFate(m.src, m.dst, m.seq)
	m.fated, m.drop, m.dup = true, f.Drop, f.Duplicate
	if f.Delay > 0 {
		m.holdUntil = at + f.Delay
	}
	switch {
	case f.Drop:
		o.Obsv.Chaos("drop", at, m.src, m.dst, now)
	case f.Duplicate:
		o.Obsv.Chaos("duplicate", at, m.src, m.dst, now)
	case f.Delay > 0:
		o.Obsv.Chaos("delay", at, m.src, m.dst, now)
	}
}

// observe is the success path's compute sample for this processor's
// ord-th superstep: it returns the transient straggler factor and
// records a burst as a chaos event at step at. Only a superstep whose
// barrier succeeded is observed (a failed sync's work is dropped), on
// both engines, so equal seeds produce equal event streams.
func (p *proc) observe(ord, at int, now float64) float64 {
	slow := p.opt.Chaos.Slowdown(p.pid, ord)
	if slow != 1 {
		p.opt.Obsv.Chaos("straggler", at, p.pid, p.pid, now)
	}
	return slow
}

// stepLog is a run's step record while it grows: per step a 32-byte
// stepRec, its times and the index of its shape, the rest of its fields,
// which a run's steps mostly repeat. A shape is found through the step's
// (label, scope label) pair: the previous step's, or one of the pair's
// two latest (pairs, keyed by the pair, so no larger than the string
// table; a coll_tcp round alternates a pair between two shapes, and no
// benchmark workload finds one deeper), or else appended. Both lists
// grow in chunks of pointer-free records, so a step never costs a copy
// of the run so far and the garbage collector never scans them. A step's
// strings are interned by value: a label built afresh for every Sync is
// kept once. flat makes the Report's slice, once, when the run returns.
type stepLog struct {
	steps  chunked[stepRec]
	shapes chunked[stepShape]
	prev   uint32               // the last step's shape
	pairs  map[uint64][2]uint32 // a pair's latest shapes, index+1, newest first
	strs   []string
	ids    map[string]uint32
}

type stepRec struct {
	time, start, end float64
	shape            uint32
}

// stepShape holds Label, ScopeLabel and ScopeName as indices into the
// string table, and the float terms as their bits: two shapes are equal
// exactly when their steps' fields are, -0 and NaN included.
type stepShape struct {
	str                            [3]uint32
	level, participants, gatingPid int32
	flows, bytes                   int
	w, h, comm, sync, imbalance    uint64
}

// chunked is an append-only list in 8 KiB chunks, an allocator size
// class; the first starts at 8 elements and doubles, so a short run does
// not pay for a long one.
type chunked[T any] struct {
	c [][]T
	n int
}

func chunkOf[T any]() int { return 8 << 10 / int(unsafe.Sizeof(*new(T))) }

func (l *chunked[T]) add(v T) {
	per := chunkOf[T]()
	if l.n%per == 0 {
		l.c = append(l.c, make([]T, 0, min(per, max(8, l.n))))
	}
	last := &l.c[len(l.c)-1]
	if len(*last) == cap(*last) {
		*last = append(make([]T, 0, min(2*cap(*last), per)), *last...)
	}
	*last = append(*last, v)
	l.n++
}

func (l *chunked[T]) at(i uint32) *T { return &l.c[int(i)/chunkOf[T]()][int(i)%chunkOf[T]()] }

func (l *stepLog) len() int { return l.steps.n }

// intern returns s's index in the string table, adding it if it is new.
// hint is the index the same field of the previous step took: a run's
// steps mostly repeat it, and a match skips the map.
func (l *stepLog) intern(s string, hint uint32) uint32 {
	if int(hint) < len(l.strs) && l.strs[hint] == s {
		return hint
	}
	if id, ok := l.ids[s]; ok {
		return id
	}
	if l.ids == nil {
		l.ids = make(map[string]uint32)
	}
	id := uint32(len(l.strs))
	l.strs = append(l.strs, s)
	l.ids[s] = id
	return id
}

func (l *stepLog) add(s *trace.Shape, time, start, end float64) {
	var hint [3]uint32
	if l.steps.n > 0 {
		hint = l.shapes.at(l.prev).str
	}
	sh := stepShape{
		level: int32(s.Level), participants: int32(s.Participants), gatingPid: int32(s.GatingPid),
		flows: s.Flows, bytes: s.Bytes,
		w: math.Float64bits(s.W), h: math.Float64bits(s.H), comm: math.Float64bits(s.Comm),
		sync: math.Float64bits(s.Sync), imbalance: math.Float64bits(s.Imbalance),
	}
	for i, str := range [3]string{s.Label, s.ScopeLabel, s.ScopeName} {
		sh.str[i] = l.intern(str, hint[i])
	}
	l.prev = l.shapeOf(sh)
	l.steps.add(stepRec{time: time, start: start, end: end, shape: l.prev})
}

// shapeOf returns sh's index in the shape table, appending it if new.
func (l *stepLog) shapeOf(sh stepShape) uint32 {
	if l.steps.n > 0 && *l.shapes.at(l.prev) == sh {
		return l.prev
	}
	key := uint64(sh.str[0])<<32 | uint64(sh.str[1])
	known := l.pairs[key]
	for _, id := range known {
		if id != 0 && *l.shapes.at(id - 1) == sh {
			return id - 1
		}
	}
	if l.pairs == nil {
		l.pairs = make(map[uint64][2]uint32)
	}
	l.shapes.add(sh)
	copy(known[1:], known[:])
	known[0] = uint32(l.shapes.n)
	l.pairs[key] = known
	return known[0] - 1
}

// flat returns the steps in the order they were added, each pointing
// to its shape in one slice of the log's shapes; nil for none.
func (l *stepLog) flat() []trace.Step {
	if l.steps.n == 0 {
		return nil
	}
	shapes := make([]trace.Shape, l.shapes.n)
	for i := range shapes {
		sh := l.shapes.at(uint32(i))
		shapes[i] = trace.Shape{
			Label: l.strs[sh.str[0]], ScopeLabel: l.strs[sh.str[1]], ScopeName: l.strs[sh.str[2]],
			Level: int(sh.level), Participants: int(sh.participants), GatingPid: int(sh.gatingPid),
			Flows: sh.flows, Bytes: sh.bytes,
			W: math.Float64frombits(sh.w), H: math.Float64frombits(sh.h), Comm: math.Float64frombits(sh.comm),
			Sync: math.Float64frombits(sh.sync), Imbalance: math.Float64frombits(sh.imbalance),
		}
	}
	out := make([]trace.Step, 0, l.steps.n)
	for _, c := range l.steps.c {
		for _, r := range c {
			out = append(out, trace.Step{Index: len(out), Shape: &shapes[r.shape], Time: r.time, Start: r.start, End: r.end})
		}
	}
	return out
}

// record appends one completed superstep to the run's steps and emits
// its span with the model's T_i(λ) = W + g·H + L for it. The engine fills
// what it measured or charged (participants, cost terms, traffic) and
// passes the step's times; the scope fields are filled here.
func (o *coreOpts) record(steps *stepLog, scope *model.Machine, label string, s *trace.Shape, time, start, end float64) {
	index := steps.len()
	s.Label, s.ScopeLabel, s.ScopeName, s.Level = label, scope.Label(), scope.Name, scope.Level
	steps.add(s, time, start, end)
	o.Obsv.Superstep(index, label, s.ScopeLabel, s.Level, start, end, s.W+s.Comm+s.Sync, int64(s.Bytes))
}

// packMsg and unpackMsg are the engine message wire codec: the user tag,
// under Verify the payload checksum and the sender's clock, and the
// payload last — borrowed: a transport writes it from the sender's slice,
// an in-proc send copies it into the pooled wire, inside the flushing Sync.
// The sender is not packed: the pvm message that carries the frame names
// it.
func packMsg(m *pendingMsg, verify bool) *pvm.Buffer {
	buf := pvm.NewBuffer()
	buf.PackInt32(int32(m.tag))
	if verify {
		buf.PackInt64(int64(m.sum))
		buf.PackInt64Slice(m.stamp.encodeInt64())
	}
	return buf.PackBytesBorrowed(m.payload)
}

// unpackMsg decodes one message sent by pid src; the payload aliases the
// buffer's bytes.
func unpackMsg(b *pvm.Buffer, src int, verify bool) (m Message, meta msgMeta, err error) {
	tag, err := b.UnpackInt32()
	if err != nil {
		return m, meta, err
	}
	m = Message{Src: src, Tag: int(tag)}
	if verify {
		sum, err := b.UnpackInt64()
		if err != nil {
			return m, meta, err
		}
		stamp, err := b.UnpackInt64Slice()
		if err != nil {
			return m, meta, err
		}
		meta = msgMeta{src: m.Src, tag: m.Tag, stamp: decodeVClock(stamp), sum: uint64(sum)}
	}
	m.Payload, err = b.UnpackBytes()
	return m, meta, err
}

// unpackWindow decodes the drained superstep in p.wires into the
// delivery window. Every payload aliases its wire, which the window holds
// until retire releases it. A message's sender is its wire's source task:
// Concurrent.Run spawns pid p as TID p in every process, so the pid↔TID
// table is the identity. A malformed message aborts the superstep with
// the window holding what decoded before it; every wire, the bad one's
// included, still goes back at the next retire or when Run ends.
func (p *proc) unpackWindow() error {
	for _, pm := range p.wires {
		m, meta, err := unpackMsg(pm.Buffer(), int(pm.Src), p.opt.Verify)
		if err != nil {
			return err
		}
		p.receive(m, meta)
	}
	return nil
}

// retire is the lifetime rule of delivered bytes (Ctx.Moves), applied at
// a drain, once a barrier has succeeded: the window before the current
// one has lived through the Sync after the one that delivered it, so its
// wires go back to the arena, and the current window's become the held
// ones. Under Verify the expiring window is overwritten with Poison and
// released only at the next retire, so that a read past the rule reads
// Poison on every run instead of whatever the arena, having handed the
// bytes out again, put there.
func (p *proc) retire() {
	expired := p.held
	if p.opt.Verify {
		for _, m := range expired {
			poison(m.Buffer().Bytes())
		}
		expired, p.poisoned = p.poisoned, expired
	}
	for _, m := range expired {
		m.Release()
	}
	clear(expired)
	p.held, p.wires = p.wires, expired[:0]
}

// recycle returns the send scratch to the arena at a successful Sync
// that leaves the outbox empty; under Verify poisoned, a recycle later.
func (p *proc) recycle() {
	if len(p.outbox) > 0 {
		return
	}
	if p.opt.Verify {
		for _, f := range p.scratch {
			poison(f.Bytes())
		}
		p.scratch, p.spoiled = p.spoiled, p.scratch
	}
	for _, f := range p.scratch {
		f.Release()
	}
	clear(p.scratch)
	p.scratch = p.scratch[:0]
}

// dropWindows releases every wire the windows and every frame the send
// scratch still hold, once the program has returned.
func (p *proc) dropWindows() {
	p.outbox = nil
	for range 3 {
		p.retire()
		p.recycle()
	}
}
