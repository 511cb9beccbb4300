package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/plan"
	"hbspk/internal/pvm"
	"hbspk/internal/pvm/wiretrans"
)

// Microprobes are short direct loops over one layer's public API, run
// in the traced repetition after its workload. They do not depend on
// the workload, so every traced run reports all of them and a change to
// one layer can be read off any workload's traced run.

// probeLayers runs every microprobe and stores the results. A probe
// that fails reports on standard error and leaves its metrics at zero;
// it fails no operation, because no end-to-end number comes from it.
func probeLayers(r *rep) {
	l := r.res.Layer
	probes := []func(*rep, map[string]float64) error{
		probeBuffer, probeMailbox, probeBarrier, probeFrame,
		probeWire, probeEngine, probePlanner, probeWorkerStartup,
	}
	for _, probe := range probes {
		if err := probe(r, l); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: microprobe: %v\n", err)
		}
	}
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// probeBuffer measures Buffer.PackBytes and UnpackBytes at the two
// payload sizes of the step workloads.
func probeBuffer(r *rep, l map[string]float64) error {
	big := make([]byte, 256<<10)
	small := make([]byte, 64)
	var packed []byte
	ns := perCall(r.scaled(2000, 20), func() { packed = pvm.NewBuffer().PackBytes(big).Bytes() })
	l["pvm.pack_gib_per_s"] = float64(len(big)) / ns * 1e9 / (1 << 30)
	var err error
	ns = perCall(r.scaled(200000, 200), func() {
		if _, e := pvm.Wrap(packed).UnpackBytes(); e != nil {
			err = e
		}
	})
	l["pvm.unpack_gib_per_s"] = float64(len(big)) / ns * 1e9 / (1 << 30)
	l["pvm.pack_ns_64b"] = perCall(r.scaled(500000, 500), func() { packed = pvm.NewBuffer().PackBytes(small).Bytes() })
	return err
}

// probeMailbox measures the in-proc mailbox with one task sending to
// itself, so no goroutine switch is in the number: Send→Recv of one
// 64-byte message, and SendBatch→TryRecvAll of sixteen.
func probeMailbox(r *rep, l map[string]float64) error {
	payload := make([]byte, 64)
	const batch = 16
	sys := pvm.NewSystem()
	sys.Spawn("self", func(t *pvm.Task) error {
		var err error
		l["pvm.sendrecv_ns"] = perCall(r.scaled(300000, 300), func() {
			if e := t.Send(t.TID(), 1, pvm.NewBuffer().PackBytes(payload)); e != nil {
				err = e
				return
			}
			m, e := t.Recv(t.TID(), 1)
			if e != nil {
				err = e
				return
			}
			m.Release()
		})
		bufs := make([]*pvm.Buffer, batch)
		l["pvm.sendbatch_ns_per_msg"] = perCall(r.scaled(30000, 30), func() {
			for i := range bufs {
				bufs[i] = pvm.NewBuffer().PackBytes(payload)
			}
			if e := t.SendBatch(t.TID(), 2, bufs); e != nil {
				err = e
				return
			}
			for _, m := range t.TryRecvAll(t.TID(), 2) {
				m.Release()
			}
		}) / batch
		return err
	})
	return sys.Wait()
}

// probeBarrier measures Task.Barrier across as many tasks as the
// engine workloads have processors.
func probeBarrier(r *rep, l map[string]float64) error {
	n := r.scaled(50000, 50)
	sys := pvm.NewSystem()
	for i := 0; i < nprocs; i++ {
		first := i == 0
		sys.Spawn("barrier", func(t *pvm.Task) error {
			var err error
			ns := perCall(n, func() {
				if e := t.Barrier("probe", nprocs); e != nil {
					err = e
				}
			})
			if first {
				l["pvm.barrier_ns"] = ns
			}
			return err
		})
	}
	return sys.Wait()
}

// probeFrame measures the frame codec on a 4 KiB body.
func probeFrame(r *rep, l map[string]float64) error {
	body := make([]byte, 4096)
	n := r.scaled(300000, 300)
	var frame []byte
	l["wiretrans.frame_encode_ns"] = perCall(n, func() { frame = wiretrans.AppendFrame(frame[:0], 3, body) })
	var scratch []byte
	var err error
	rd := bytes.NewReader(frame)
	l["wiretrans.frame_decode_ns"] = perCall(n, func() {
		rd.Reset(frame)
		if _, _, scratch, _, err = wiretrans.ReadFrame(rd, scratch); err != nil {
			return
		}
	})
	return err
}

// wireSizes is the message-size sweep of the wire characterisation;
// wireCalls the timed SendBatch calls at each size.
var (
	wireSizes = []int{64, 4 << 10, 64 << 10, 1 << 20}
	wireCalls = []int{2000, 2000, 500, 60}
)

// probeWire characterises each socket transport the way Barchet-
// Estefanel & Mounié prescribe: the time of one acknowledged SendBatch
// through an attached Loopback at four message sizes, fitted to
// t = L + g·bytes. The intercept is the link's latency, the slope its
// gap per byte. It also times bringing a Loopback up and down.
func probeWire(r *rep, l map[string]float64) error {
	for _, network := range []string{"unix", "tcp"} {
		attach := perCall(r.scaled(20, 2), func() {
			lb, err := wiretrans.NewLoopback(network)
			if err != nil {
				return
			}
			if err := pvm.NewSystem().SetTransport(lb); err == nil {
				_ = lb.Close() // Close of a healthy Loopback always returns nil
			}
		})
		l["wiretrans.attach_ms."+network] = attach / 1e6

		var sizes, times []float64
		for i, size := range wireSizes {
			t, err := wireRoundTrip(network, size, r.scaled(wireCalls[i], 5))
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(size))
			times = append(times, t)
		}
		L, g := fitLatencyGap(sizes, times)
		l["wiretrans.latency_us."+network] = L / 1e3
		l["wiretrans.gap_ns_per_byte."+network] = g
	}
	return nil
}

// wireRoundTrip returns the median nanoseconds of one SendBatch of a
// single size-byte message over the network's Loopback.
func wireRoundTrip(network string, size, calls int) (float64, error) {
	lb, err := wiretrans.NewLoopback(network)
	if err != nil {
		return 0, err
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(lb); err != nil {
		return 0, err
	}
	defer lb.Close()
	payload := make([]byte, size)
	ns := make([]float64, 0, calls)
	ready := make(chan pvm.TID, 1)
	sys.Spawn("recv", func(t *pvm.Task) error {
		ready <- t.TID()
		for i := 0; i < calls; i++ {
			m, err := t.Recv(pvm.AnySource, 1)
			if err != nil {
				return err
			}
			m.Release()
		}
		return nil
	})
	sys.Spawn("send", func(t *pvm.Task) error {
		dst := <-ready
		for i := 0; i < calls; i++ {
			buf := []*pvm.Buffer{pvm.NewBuffer().PackBytes(payload)}
			start := time.Now()
			if err := t.SendBatch(dst, 1, buf); err != nil {
				return err
			}
			ns = append(ns, float64(time.Since(start)))
		}
		return nil
	})
	if err := sys.Wait(); err != nil {
		return 0, err
	}
	return median(ns), nil
}

// probeEngine measures what the engines cost around the program: a
// Concurrent.Run of a program that does nothing, and the Virtual
// engine's step rate on the sync_inproc program.
func probeEngine(r *rep, l map[string]float64) error {
	tree := benchTree()
	var err error
	l["hbsp.run_empty_ms"] = perCall(r.scaled(200, 3), func() {
		if _, e := hbsp.NewConcurrent(tree).Run(func(hbsp.Ctx) error { return nil }); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return err
	}

	steps := r.scaled(5000, 20)
	payload := make([]byte, 64)
	start := time.Now()
	report, err := hbsp.RunVirtual(tree, fabric.PVM(), func(c hbsp.Ctx) error {
		for s := 0; s < steps; s++ {
			for dst := 0; dst < nprocs; dst++ {
				if dst == c.Pid() {
					continue
				}
				if err := c.Send(dst, 1, payload); err != nil {
					return err
				}
			}
			if err := hbsp.SyncAll(c, "exchange"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l["hbsp.virtual_steps_per_s"] = float64(len(report.Steps)) / time.Since(start).Seconds()
	return nil
}

// probePlanner measures a cached Planner.Decide, the dispatch cost a
// planned collective adds to a direct one.
func probePlanner(r *rep, l map[string]float64) error {
	tree := benchTree()
	p := plan.New()
	if _, ok := p.Decide(tree, "bcast", collBytes); !ok {
		return fmt.Errorf("planner knows no bcast variants")
	}
	l["plan.decide_hit_ns"] = perCall(r.scaled(1000000, 1000), func() { p.Decide(tree, "bcast", collBytes) })
	return nil
}

// probeWorkerStartup measures a zero-round run of the built worker
// CLI: spawn, HELLO/WELCOME and both exits, nothing else.
func probeWorkerStartup(r *rep, l map[string]float64) error {
	var total []float64
	for i := 0; i < r.scaled(5, 1); i++ {
		w, err := runWorkers(workerBin(r.Out), 0, workerDeadline)
		if err != nil {
			return err
		}
		total = append(total, w.total.Seconds()*1e3)
	}
	l["worker.startup_ms"] = median(total)
	return nil
}
