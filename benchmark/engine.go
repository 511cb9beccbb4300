package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/pvm"
	"hbspk/internal/pvm/wiretrans"
)

// nprocs is the processor count of benchTree.
const nprocs = 4

// benchTree is the machine of the engine workloads: the smallest
// genuine HBSP^2 machine, two clusters of two leaves. Its four
// processors take turns on the repetition's one thread (engineProcs);
// no scaling-with-p number is reported.
func benchTree() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }

// spmdOp performs operation n of an SPMD program on one processor: its
// sends and syncs, then done(), then its oracle checks (reporting
// through rep.fail). n counts from zero through the warm-up; pt is nil
// when tracing is off.
type spmdOp func(c hbsp.Ctx, pt *pidTrace, n int, done func()) error

// engineRun describes one closed-loop run on the Concurrent engine.
type engineRun struct {
	// network is "" for the in-proc transport, else "unix" or "tcp".
	network string
	// warm operations run untimed first, then the repetition's Ops.
	warm int
	// payload is the bytes one operation moves between processors.
	payload int
	op      spmdOp
}

// runEngine runs the closed loop inside a single Concurrent.Run: every
// processor issues its next operation only when the previous one's last
// barrier has returned, warm-up first, then the repetition's fixed
// number of timed operations. Processor 0 owns the clock.
func (r *rep) runEngine(e engineRun) error {
	tree := benchTree()
	if tree.NProcs() != nprocs {
		return fmt.Errorf("bench tree has %d processors, want %d", tree.NProcs(), nprocs)
	}
	eng := hbsp.NewConcurrent(tree)
	var rec *obsv.Recorder
	var counts substrateCounts
	var attached func()
	clockOff := make([]float64, nprocs)
	if r.Trace {
		r.tr = newTracer(nprocs)
		// 2^18 events hold the barrier and superstep events of every
		// traceOps in the workloads table; delivery spans are not kept.
		rec = obsv.New(obsv.Config{Capacity: 1 << 18, SampleEvery: -1})
		eng.Obsv = rec
		pvm.SetObserver(&counts)
		defer pvm.SetObserver(nil)
		// The handshake's frames are set-up, not any operation's.
		attached = func() { counts.frames.Store(0); counts.frameBytes.Store(0) }
	}
	if e.network != "" {
		eng.Transport = func() (pvm.Transport, error) {
			lb, err := wiretrans.NewLoopback(e.network)
			if err != nil {
				return nil, err
			}
			if r.tr == nil {
				return lb, nil
			}
			return tracedTransport{lb, r.tr, attached}, nil
		}
	}

	total := e.warm + r.Ops
	report, err := eng.Run(func(c hbsp.Ctx) error {
		pid := c.Pid()
		pt := r.tr.pid(pid)
		if r.tr != nil {
			clockOff[pid] = r.tr.clockOffset(func() float64 { return hbsp.NowOf(c) })
		}
		for n := 0; n < total; n++ {
			timed := n >= e.warm
			var began time.Time
			if pid == 0 && timed {
				if n == e.warm {
					r.startTimed()
				}
				began = time.Now()
			}
			if timed {
				pt.beginOp(n - e.warm)
			}
			err := e.op(c, pt, n, func() {
				if pid == 0 && timed {
					r.opDone(float64(time.Since(began)) / 1e3)
				}
			})
			if timed {
				pt.end()
			}
			if err != nil {
				return err
			}
		}
		if pid == 0 {
			r.stopTimed(len(r.lat))
		}
		return nil
	})
	if err != nil {
		// Only the operations processor 0 saw complete count as done.
		r.res.Ops = len(r.lat)
		return err
	}
	if r.tr == nil {
		return nil
	}

	ops := float64(r.res.Ops)
	l := r.res.Layer
	l["hbsp.steps_per_op"] = float64(len(report.Steps)) / float64(total)
	l["hbsp.bytes_per_op"] = float64(report.BytesMoved()) / float64(total)
	l["hbsp.payload_mb_per_s"] = float64(e.payload) * ops / r.res.WallS / 1e6
	// Frames are counted over the whole run, warm-up included: every
	// operation frames the same, and only at the run's end is no frame
	// of another processor in flight, so the count per operation is
	// exact.
	l["wiretrans.frames_per_op"] = float64(counts.frames.Load()) / float64(total)
	l["wiretrans.frame_bytes_per_op"] = float64(counts.frameBytes.Load()) / float64(total)
	l["wiretrans.framing_overhead"] = l["wiretrans.frame_bytes_per_op"] / float64(e.payload)
	if d := counts.draws.Load(); d > 0 {
		l["pvm.pool_hit_ratio"] = float64(counts.hits.Load()) / float64(d)
	}
	l["pvm.mailbox_depth_max"] = float64(counts.depthMax.Load())
	r.adoptBarrierWaits(rec.Events(), clockOff)
	r.spanLayers()
	return nil
}

// adoptBarrierWaits turns the engine recorder's per-processor barrier
// events into hbsp.barrier_wait spans. The recorder's clock is
// microseconds since the run started; clockOff maps it to the tracer's.
func (r *rep) adoptBarrierWaits(events []obsv.Event, clockOff []float64) {
	perPid := make([][]obsv.Event, nprocs)
	for _, ev := range events {
		if ev.Kind == obsv.KindBarrier && ev.Pid >= 0 && int(ev.Pid) < nprocs {
			perPid[ev.Pid] = append(perPid[ev.Pid], ev)
		}
	}
	for pid, evs := range perPid {
		sort.Slice(evs, func(a, b int) bool { return evs[a].Start < evs[b].Start })
		pt := r.tr.pids[pid]
		recorded := len(pt.spans)
		lastChildEnd := map[int]int64{}
		for _, ev := range evs {
			start := int64((ev.Start + clockOff[pid]) * 1e3)
			end := int64((ev.End + clockOff[pid]) * 1e3)
			pt.adopt("hbsp.barrier_wait", start, end, recorded, lastChildEnd)
		}
	}
}

// spanLayers derives the span-based per-layer metrics. Shares are of
// processor 0's timed wall, the clock the end-to-end metrics use.
func (r *rep) spanLayers() {
	tr, l := r.tr, r.res.Layer
	wallUs := r.res.WallS * 1e6
	ops := float64(r.res.Ops)

	deliver := tr.durations("wiretrans.deliver")
	l["wiretrans.deliver_calls_per_op"] = float64(len(deliver)) / ops
	l["wiretrans.deliver_p50_us"] = median(deliver)
	l["wiretrans.deliver_p99_us"] = percentile(deliver, 0.99)
	l["wiretrans.deliver_share"] = sum(tr.durations("wiretrans.deliver", 0)) / wallUs

	syncs := tr.durations("hbsp.sync", 0)
	l["hbsp.sync_p50_us"] = median(syncs)
	l["hbsp.sync_p99_us"] = percentile(syncs, 0.99)
	l["hbsp.sync_self_share"] = tr.selfMicros("hbsp.sync", 0) / wallUs
	l["hbsp.barrier_wait_share"] = sum(tr.durations("hbsp.barrier_wait", 0)) / wallUs
	l["hbsp.send_us_per_op"] = sum(tr.durations("hbsp.send", 0)) / ops
}

// seededPayloads returns, for every ordered pair of processors, the
// buffer the sender sends and an independent copy the receiver checks
// against; the first eight bytes of each are the operation stamp.
func seededPayloads(seed int64, size int) (out, want [][][]byte) {
	rng := rand.New(rand.NewSource(seed))
	out, want = make([][][]byte, nprocs), make([][][]byte, nprocs)
	for src := 0; src < nprocs; src++ {
		out[src], want[src] = make([][]byte, nprocs), make([][]byte, nprocs)
		for dst := 0; dst < nprocs; dst++ {
			b := make([]byte, size)
			rng.Read(b)
			out[src][dst], want[src][dst] = b, append([]byte(nil), b...)
		}
	}
	return out, want
}

// stamp writes operation number n into the head of a payload.
func stamp(b []byte, n int) { binary.LittleEndian.PutUint64(b, uint64(n)) }

// stamped reports whether got carries stamp n followed by want's body.
func stamped(got, want []byte, n int) bool {
	return len(got) == len(want) && len(got) >= 8 &&
		binary.LittleEndian.Uint64(got) == uint64(n) && bytes.Equal(got[8:], want[8:])
}

// runSteps is the all-to-all superstep workload: every processor sends
// size bytes to every other and the whole machine synchronizes. The
// oracle checks, on every processor and every step, the message count,
// the sources, and every delivered payload against the seeded copy.
func runSteps(r *rep, network string, size int) error {
	out, want := seededPayloads(r.Seed, size)
	warm := r.scaled(1000, 10)
	if size > 4096 {
		warm = r.scaled(30, 3)
	}
	return r.runEngine(engineRun{
		network: network, warm: warm,
		payload: nprocs * (nprocs - 1) * size,
		op: func(c hbsp.Ctx, pt *pidTrace, n int, done func()) error {
			pid := c.Pid()
			for dst := 0; dst < nprocs; dst++ {
				if dst == pid {
					continue
				}
				stamp(out[pid][dst], n)
				pt.begin("hbsp.send")
				err := c.Send(dst, 1, out[pid][dst])
				pt.end()
				if err != nil {
					return err
				}
			}
			pt.begin("hbsp.sync")
			err := hbsp.SyncAll(c, "exchange")
			pt.end()
			if err != nil {
				return err
			}
			done()

			moves := c.Moves()
			if len(moves) != nprocs-1 {
				r.fail(n-warm, "pid %d got %d messages, want %d", pid, len(moves), nprocs-1)
				return nil
			}
			src := 0
			for _, m := range moves {
				if src == pid {
					src++
				}
				if m.Src != src || !stamped(m.Payload, want[src][pid], n) {
					r.fail(n-warm, "pid %d: message from %d (want %d) fails the payload check", pid, m.Src, src)
				}
				src++
			}
			return nil
		},
	})
}
