package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"hbspk/internal/pvm"
)

// The tracer records one span per layer boundary the harness can see
// from outside the engine: the benchmark's own program closure brackets
// its calls into hbsp and collective, a decorator brackets the
// transport, and the engine's existing Obsv recorder supplies barrier
// waits. Spans stay in memory until the run ends. All methods are
// no-ops on a nil receiver, so an untraced run pays one branch per call
// site and nothing else.

// span is one timed interval on one processor. Times are nanoseconds
// since the tracer's epoch; parent indexes the same processor's span
// list (-1 for a root); op is the identifier every span of one timed
// operation shares.
type span struct {
	name       string
	op         int
	parent     int
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// pidTrace is the span list of one processor. It is confined to that
// processor's goroutine while the program runs: the transport decorator
// is called on the sending processor's goroutine too.
type pidTrace struct {
	epoch time.Time
	spans []span
	stack []int
}

func (t *pidTrace) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of timed operation op.
func (t *pidTrace) beginOp(op int) {
	if t == nil {
		return
	}
	t.push("op", op)
}

// begin opens a child of the innermost open span and inherits its op.
// Outside any operation (warm-up) it records nothing.
func (t *pidTrace) begin(name string) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.push(name, t.spans[t.stack[len(t.stack)-1]].op)
}

func (t *pidTrace) push(name string, op int) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t.now()})
}

// end closes the innermost open span.
func (t *pidTrace) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = t.now()
}

// adopt inserts a span measured elsewhere (a barrier wait reported by
// the engine's recorder) under the innermost recorded span that was
// open at its midpoint. The interval is clipped to its parent and to
// the end of the parent's previous adopted child, so a clock-alignment
// error of a microsecond can neither pick the wrong parent nor make a
// child outlast its parent or a self time go negative. Intervals that
// fall outside every span (warm-up) are dropped. recorded is the number
// of spans the program itself pushed: adopted spans are appended after
// them and never become parents.
func (t *pidTrace) adopt(name string, start, end int64, recorded int, lastChildEnd map[int]int64) {
	mid := start + (end-start)/2
	i := sort.Search(recorded, func(i int) bool { return t.spans[i].start > mid }) - 1
	for i >= 0 && t.spans[i].end < mid {
		i = t.spans[i].parent
	}
	if i < 0 {
		return
	}
	p := t.spans[i]
	if start < p.start {
		start = p.start
	}
	if prev, ok := lastChildEnd[i]; ok && start < prev {
		start = prev
	}
	if end > p.end {
		end = p.end
	}
	if end < start {
		end = start
	}
	lastChildEnd[i] = end
	t.spans = append(t.spans, span{name: name, op: p.op, parent: i, start: start, end: end})
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span run one after another on the
// same goroutine, so their durations add.
func (t *pidTrace) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// tracer is the per-run collection of processor traces.
type tracer struct {
	epoch time.Time
	pids  []*pidTrace
}

func newTracer(nprocs int) *tracer {
	tr := &tracer{epoch: time.Now(), pids: make([]*pidTrace, nprocs)}
	for i := range tr.pids {
		tr.pids[i] = &pidTrace{epoch: tr.epoch}
	}
	return tr
}

// pid returns processor p's trace, or nil when tracing is off.
func (tr *tracer) pid(p int) *pidTrace {
	if tr == nil {
		return nil
	}
	return tr.pids[p]
}

// micros returns the time since the tracer's epoch in microseconds, the
// unit of the engine's recorder clock.
func (tr *tracer) micros() float64 { return float64(time.Since(tr.epoch)) / 1e3 }

// clockOffset returns what to add to a reading of another microsecond
// clock to get the tracer's. Each try brackets one reading of the other
// clock between two of the tracer's; the tightest bracket wins, so a
// goroutine descheduled between two reads cannot skew the offset.
func (tr *tracer) clockOffset(other func() float64) float64 {
	best, off := math.Inf(1), 0.0
	for try := 0; try < 8; try++ {
		before := tr.micros()
		at := other()
		after := tr.micros()
		if width := after - before; width < best {
			best, off = width, (before+after)/2-at
		}
	}
	return off
}

// durations returns the durations, in microseconds, of every span of
// the given name on the given processors (all of them when none are
// listed).
func (tr *tracer) durations(name string, pids ...int) []float64 {
	var out []float64
	for p, pt := range tr.pids {
		if len(pids) > 0 && !slices.Contains(pids, p) {
			continue
		}
		for _, s := range pt.spans {
			if s.name == name {
				out = append(out, float64(s.dur())/1e3)
			}
		}
	}
	return out
}

// selfMicros sums the self time of every span of the given name on one
// processor.
func (tr *tracer) selfMicros(name string, pid int) float64 {
	pt := tr.pids[pid]
	total := int64(0)
	for i, self := range pt.selfTimes() {
		if pt.spans[i].name == name {
			total += self
		}
	}
	return float64(total) / 1e3
}

// writeChrome writes the spans in Chrome trace format (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// one track per processor, with the op id, the span's index, its
// parent's index and its self time in args.
func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for p, pt := range tr.pids {
		self := pt.selfTimes()
		for i, s := range pt.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"cat":"hbspk","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"id":%d,"parent":%d,"self_us":%.3f}}`,
				s.name, p, float64(s.start)/1e3, float64(s.dur())/1e3, s.op, i, s.parent, float64(self[i])/1e3)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport brackets every Deliver of the transport the factory
// returned with a wiretrans.deliver span on the sending processor. The
// engine spawns one task per processor in pid order on a fresh System,
// so a message's source TID is the sender's pid.
type tracedTransport struct {
	pvm.Transport
	tr *tracer
	// attached runs once the transport's handshake is over, before any
	// processor is spawned.
	attached func()
}

func (t tracedTransport) Attach(sys *pvm.System) error {
	err := t.Transport.Attach(sys)
	t.attached()
	return err
}

func (t tracedTransport) Deliver(dst pvm.TID, ms []pvm.Message) error {
	var pt *pidTrace
	if len(ms) > 0 && int(ms[0].Src) < len(t.tr.pids) {
		pt = t.tr.pids[ms[0].Src]
	}
	pt.begin("wiretrans.deliver")
	err := t.Transport.Deliver(dst, ms)
	pt.end()
	return err
}

// substrateCounts is the process-global pvm observer of a traced run:
// pool draws, mailbox depth and (the FrameObserver extension) frames
// crossing a wire transport.
type substrateCounts struct {
	draws, hits        atomic.Int64
	depthMax           atomic.Int64
	frames, frameBytes atomic.Int64
}

func (c *substrateCounts) MailboxDepth(depth int) {
	for {
		old := c.depthMax.Load()
		if int64(depth) <= old || c.depthMax.CompareAndSwap(old, int64(depth)) {
			return
		}
	}
}

func (c *substrateCounts) PoolDraw(hit bool) {
	c.draws.Add(1)
	if hit {
		c.hits.Add(1)
	}
}

func (c *substrateCounts) TransportFrame(_ string, _ bool, frameBytes int) {
	c.frames.Add(1)
	c.frameBytes.Add(int64(frameBytes))
}
