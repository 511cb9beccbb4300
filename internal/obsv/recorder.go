package obsv

import (
	"math"
	"strconv"
	"sync/atomic"
)

// Config sizes a Recorder.
type Config struct {
	// Capacity is the span ring's size (rounded up to a power of two);
	// the ring keeps the most recent Capacity events. Default 1<<16.
	Capacity int
	// SampleEvery keeps one of every N delivery spans (metrics always
	// count every delivery). 0 or 1 keeps all; negative keeps none.
	SampleEvery int
}

// Recorder collects spans and metrics for one run. All emission
// methods are safe on a nil receiver and no-op there, so engines hold
// a bare *Recorder field and pay one predictable branch when
// observability is off.
//
// Recorder implements pvm's Observer interface structurally
// (MailboxDepth, PoolDraw), so the substrate can feed it without an
// import cycle.
type Recorder struct {
	metrics *Registry
	ring    *ring
	sample  int64
	nDeliv  atomic.Int64

	// Hot handles, resolved once at construction so emission never
	// takes the registry lock.
	hrel         *Histogram
	barrierWait  *Histogram
	mailboxDepth *Histogram
	stepsTotal   *Counter
	messages     *Counter
	bytesTotal   *Counter
	poolHit      *Counter
	poolMiss     *Counter
	chaosTotal   *Counter
	reorgTotal   *Counter
	predTotal    *Gauge
	measTotal    *Gauge
	predSum      atomicFloat
	measSum      atomicFloat
}

// atomicFloat is a float64 accumulated with CAS on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) float64 {
	for {
		old := f.bits.Load()
		sum := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			return sum
		}
	}
}

// Default bucket bounds. Time buckets are decades because the engine
// clock unit differs between engines (virtual units vs µs); byte and
// depth buckets are powers of four / two.
var (
	timeBuckets  = []float64{0.1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	byteBuckets  = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22}
	depthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
)

// New returns a Recorder with registered metric families.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 16
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	reg := NewRegistry()
	reg.Help("hbspk_supersteps_total", "Completed supersteps.")
	reg.Help("hbspk_superstep_h_relation", "Heterogeneous h-relation per superstep (rated byte units).")
	reg.Help("hbspk_barrier_wait", "Per-processor barrier wait (engine time units).")
	reg.Help("hbspk_mailbox_depth", "Staged mailbox depth observed at delivery.")
	reg.Help("hbspk_messages_total", "Messages delivered.")
	reg.Help("hbspk_bytes_total", "Bytes delivered, overall and per (src,dst,tag).")
	reg.Help("hbspk_pool_draws_total", "Wire-buffer pool draws by result.")
	reg.Help("hbspk_chaos_injections_total", "Chaos injections observed by fate.")
	reg.Help("hbspk_reorgs_total", "Barrier-time tree reorganizations applied.")
	reg.Help("hbspk_predicted_time_total", "Summed cost-model predicted superstep time T_i.")
	reg.Help("hbspk_measured_time_total", "Summed measured superstep time.")
	r := &Recorder{
		metrics: reg,
		ring:    newRing(cfg.Capacity),
		sample:  int64(cfg.SampleEvery),

		hrel:         reg.Histogram("hbspk_superstep_h_relation", byteBuckets),
		barrierWait:  reg.Histogram("hbspk_barrier_wait", timeBuckets),
		mailboxDepth: reg.Histogram("hbspk_mailbox_depth", depthBuckets),
		stepsTotal:   reg.Counter("hbspk_supersteps_total"),
		messages:     reg.Counter("hbspk_messages_total"),
		bytesTotal:   reg.Counter("hbspk_bytes_total"),
		poolHit:      reg.Counter("hbspk_pool_draws_total", "result", "hit"),
		poolMiss:     reg.Counter("hbspk_pool_draws_total", "result", "miss"),
		chaosTotal:   reg.Counter("hbspk_chaos_injections_total"),
		reorgTotal:   reg.Counter("hbspk_reorgs_total"),
		predTotal:    reg.Gauge("hbspk_predicted_time_total"),
		measTotal:    reg.Gauge("hbspk_measured_time_total"),
	}
	return r
}

// Metrics exposes the recorder's registry (nil for a nil recorder).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Events returns the buffered spans in emission order. Call only after
// the instrumented engines have quiesced (see ring.snapshot).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}

// Lost reports how many events were evicted or dropped from the ring.
func (r *Recorder) Lost() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.lost()
}

// Superstep records one completed super^i-step span: measured bounds
// on the engine clock plus the model's predicted T_i for the same step.
func (r *Recorder) Superstep(step int, label, scope string, level int, start, end, pred float64, bytes int64) {
	if r == nil {
		return
	}
	r.stepsTotal.Inc()
	r.predTotal.Set(r.predSum.add(pred))
	r.measTotal.Set(r.measSum.add(end - start))
	r.ring.put(Event{
		Kind: KindSuperstep, Step: int32(step), Pid: -1, Src: -1, Dst: -1, Tag: -1,
		Level: int32(level), Bytes: bytes, Start: start, End: end, Pred: pred,
		Name: label, Scope: scope,
	})
}

// HRelation records a superstep's heterogeneous h-relation.
func (r *Recorder) HRelation(h float64) {
	if r == nil {
		return
	}
	r.hrel.Observe(h)
}

// BarrierWait records one processor's wait inside a Sync: from barrier
// entry (start) to step completion (end).
func (r *Recorder) BarrierWait(step, pid int, scope string, level int, start, end float64) {
	if r == nil {
		return
	}
	r.barrierWait.Observe(end - start)
	r.ring.put(Event{
		Kind: KindBarrier, Step: int32(step), Pid: int32(pid), Src: -1, Dst: -1, Tag: -1,
		Level: int32(level), Start: start, End: end, Scope: scope,
	})
}

// Collective records one collective-library call on one processor.
func (r *Recorder) Collective(name string, pid int, start, end float64, bytes int64) {
	if r == nil {
		return
	}
	r.ring.put(Event{
		Kind: KindCollective, Step: -1, Pid: int32(pid), Src: -1, Dst: -1, Tag: -1,
		Bytes: bytes, Start: start, End: end, Name: name,
	})
}

// Delivery records one delivered message. Metrics count every call;
// the span is kept for one in every SampleEvery calls.
func (r *Recorder) Delivery(step, src, dst, tag int, bytes int64, at float64) {
	if r == nil {
		return
	}
	r.messages.Inc()
	r.bytesTotal.Add(bytes)
	r.metrics.Counter("hbspk_bytes_total",
		"src", itoa(src), "dst", itoa(dst), "tag", itoa(tag)).Add(bytes)
	if r.sample > 1 {
		if r.nDeliv.Add(1)%r.sample != 1 {
			return
		}
	} else if r.sample < 0 {
		return
	}
	r.ring.put(Event{
		Kind: KindDelivery, Step: int32(step), Pid: int32(dst),
		Src: int32(src), Dst: int32(dst), Tag: int32(tag),
		Bytes: bytes, Start: at, End: at,
	})
}

// Chaos records one observed fault injection; fate is the injection's
// name (drop, duplicate, delay, crash, straggler).
func (r *Recorder) Chaos(fate string, step, src, dst int, at float64) {
	if r == nil {
		return
	}
	r.chaosTotal.Inc()
	r.metrics.Counter("hbspk_chaos_injections_total", "fate", fate).Inc()
	r.ring.put(Event{
		Kind: KindChaos, Step: int32(step), Pid: int32(dst),
		Src: int32(src), Dst: int32(dst), Tag: -1,
		Start: at, End: at, Name: fate,
	})
}

// Reorg records one barrier-time tree reorganization: epoch is the
// reorg ordinal, moved how many leaves changed slots. A deferred one
// fell due at a global barrier inside a collective and waits for the
// first global barrier outside one (Name "reorg-deferred", moved 0);
// only applied ones count in hbspk_reorgs_total.
func (r *Recorder) Reorg(epoch, moved int, deferred bool, at float64) {
	if r == nil {
		return
	}
	name := "reorg-deferred"
	if !deferred {
		name = "reorg"
		r.reorgTotal.Inc()
	}
	r.ring.put(Event{
		Kind: KindReorg, Step: int32(epoch), Pid: -1,
		Src: int32(moved), Dst: -1, Tag: -1,
		Start: at, End: at, Name: name,
	})
}

// Pick records one planner variant selection: the auto-tuned
// dispatcher chose variant for the family at n payload bytes, at
// closed-form model cost pred. The processor whose lookup missed the
// decision cache emits it, once per miss, so a run's pick history reads
// directly off the event stream.
func (r *Recorder) Pick(family, variant string, pid int, n int64, pred, at float64) {
	if r == nil {
		return
	}
	r.metrics.Counter("hbspk_planner_picks_total", "family", family, "variant", variant).Inc()
	r.ring.put(Event{
		Kind: KindPick, Step: -1, Pid: int32(pid), Src: -1, Dst: -1, Tag: -1,
		Bytes: n, Start: at, End: at, Pred: pred,
		Name: family + "->" + variant,
	})
}

// MailboxDepth records the staged depth of a mailbox at delivery time.
// Part of pvm's structural Observer interface.
func (r *Recorder) MailboxDepth(depth int) {
	if r == nil {
		return
	}
	r.mailboxDepth.Observe(float64(depth))
}

// PoolDraw records one wire-buffer pool draw. Part of pvm's structural
// Observer interface.
func (r *Recorder) PoolDraw(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.poolHit.Inc()
	} else {
		r.poolMiss.Inc()
	}
}

// TransportFrame records one frame crossing a wire transport, split by
// transport name and direction. Part of pvm's structural FrameObserver
// extension; the in-proc fast path never emits it, so a nonzero count
// is itself proof the run left the process. Frames are per-batch, not
// per-message, so the registry lookup here is off the per-message path.
func (r *Recorder) TransportFrame(transport string, out bool, frameBytes int) {
	if r == nil {
		return
	}
	dir := "rx"
	if out {
		dir = "tx"
	}
	r.metrics.Counter("hbspk_transport_frames_total", "transport", transport, "dir", dir).Inc()
	r.metrics.Counter("hbspk_transport_bytes_total", "transport", transport, "dir", dir).Add(int64(frameBytes))
}

func itoa(v int) string { return strconv.Itoa(v) }
