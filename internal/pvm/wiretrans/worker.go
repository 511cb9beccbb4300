package wiretrans

import (
	"fmt"
	"time"

	"hbspk/internal/pvm"
)

// Worker is the worker-process side of a multi-process run, as the
// pvm.Transport of that process's System: one link to the coordinator's
// hub. Sends go up it as BATCH frames, the hosted task's barrier entries
// as BARRIER frames (pvm.BarrierCarrier) — on one link, in program order,
// so the hub sees a superstep's sends before the arrival that ends it —
// and what the relay forwards comes back down into the local System
// ahead of the barrier's verdict. It hosts one pid; every other TID is a
// placeholder task that keeps the destination resolvable.
type Worker struct {
	lk  *link
	pid int
	sys *pvm.System // set by Attach, which starts the reader

	// replies hands the one barrier the hosted task can have in flight
	// its answer; done closes, after err is set, when the reader is gone.
	replies chan barrierReply
	done    chan struct{}
	err     error
}

type barrierReply struct {
	data map[pvm.TID][]byte
	err  error
}

// DialWorker connects to a hub, retrying the dial until timeout (the
// worker usually races the coordinator's listener at startup), and
// completes the pid+generation handshake.
func DialWorker(network, addr string, pid, nprocs int, gen int64, timeout time.Duration) (*Worker, error) {
	conn, err := dialRetry(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	lk := newLink(conn, network)
	if err := lk.sendHello(helloInfo{role: roleWorker, pid: int32(pid), nprocs: int32(nprocs), gen: gen}); err != nil {
		_ = lk.close()
		return nil, err
	}
	if err := lk.readWelcome(); err != nil {
		_ = lk.close()
		return nil, err
	}
	return &Worker{lk: lk, pid: pid, replies: make(chan barrierReply, 1), done: make(chan struct{})}, nil
}

// Name implements pvm.Transport.
func (w *Worker) Name() string { return w.lk.transport }

// Attach implements pvm.Transport: the downlink starts flowing into sys.
func (w *Worker) Attach(sys *pvm.System) error {
	w.sys = sys
	go w.reader()
	return nil
}

// Proxy tells the engine that only this worker's pid runs here; any
// other TID gets a task that returns at once.
func (w *Worker) Proxy(tid pvm.TID) func(*pvm.Task) error {
	if int(tid) == w.pid {
		return nil
	}
	return func(*pvm.Task) error { return nil }
}

// reader demultiplexes the downlink: forwarded messages into the local
// System, the barrier's outcome to its waiter. A frame is released once
// handled; on a path that ends the reader it is left to the collector.
func (w *Worker) reader() {
	defer close(w.done)
	for {
		kind, body, f, err := w.lk.readFrame()
		if err != nil {
			w.err = fmt.Errorf("wiretrans: hub link: %w: %v", pvm.ErrPeerLost, err)
			return
		}
		switch kind {
		case frameBatch:
			_, code, detail := injectBatch(w.sys, f, body)
			f.Release()
			if code != ackOK {
				w.err = fmt.Errorf("wiretrans: hub link: forwarded batch: %w", ackCause(code, detail))
				return
			}
		case frameBarrierOK, frameBarrierErr:
			var r barrierReply
			r.data, r.err = unpackBarrierReply(kind, body)
			f.Release()
			select {
			case w.replies <- r:
			default:
				w.err = fmt.Errorf("%w: hub answered a barrier nobody is in", ErrBadFrame)
				return
			}
		default:
			w.err = fmt.Errorf("%w: hub sent kind %d", ErrBadFrame, kind)
			return
		}
	}
}

// Deliver implements pvm.Transport: the batch goes up the link through
// the routine Loopback writes with — held while its sender marks More,
// then the whole post in one vectored write — and the relay injects it
// at the hub.
func (w *Worker) Deliver(dst pvm.TID, ms []pvm.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := w.lk.post(dst, ms, ms[0].More); err != nil {
		return &pvm.DeliveryError{Dst: dst, Err: err}
	}
	return nil
}

// Flush implements pvm.Transport with nothing to wait for, only what the
// task left held to write: the link is FIFO and the relay reads it in
// order, so every batch written before a BARRIER frame is in its
// destination's mailbox at the hub before that arrival counts — the only
// point the engines need it observable by. Task.BarrierExchange flushes
// first, so the BARRIER frame follows the superstep's sends. Only the
// hosted pid posts; a placeholder's exit must not cut its post in two.
func (w *Worker) Flush(src pvm.TID) error {
	if int(src) != w.pid {
		return nil
	}
	lk := w.lk
	lk.wmu.Lock()
	defer lk.wmu.Unlock()
	if len(lk.own.frames) == 0 {
		return nil
	}
	dst := lk.own.frames[0].dst
	if err := lk.writeHeldLocked(&lk.own); err != nil {
		return &pvm.DeliveryError{Dst: dst, Err: err}
	}
	return nil
}

// BarrierExchange implements pvm.BarrierCarrier: the entry travels as a
// BARRIER frame, the relay parks in the coordinator System's
// BarrierExchange, and the result (every
// participant's deposit keyed by pid) or the typed error comes back
// down, behind everything the superstep sent this worker. Only the hub's
// answer or the loss of the link ends the wait.
func (w *Worker) BarrierExchange(_ pvm.TID, name string, count int, deposit []byte) (map[pvm.TID][]byte, error) {
	if err := w.lk.writeFrame(frameBarrier, packBarrier(name, count, deposit)); err != nil {
		return nil, err
	}
	select {
	case r := <-w.replies:
		return r.data, r.err
	case <-w.done:
	}
	select {
	case r := <-w.replies: // the answer arrived before the link went
		return r.data, r.err
	default:
		return nil, w.err
	}
}

// Close implements pvm.Transport: the connection drops and the reader
// drains out. The departure is clean — a BYE frame first — only if no
// task of this process failed; otherwise the relay sees a lost link and
// halts the coordinator, so the other processes fail fast instead of
// waiting at a barrier this one will never reach.
func (w *Worker) Close() error {
	if w.sys == nil || len(w.sys.Errors()) == 0 {
		_ = w.lk.writeFrame(frameBye, nil) // best effort: the link may be gone already
	}
	err := w.lk.close()
	if w.sys != nil {
		<-w.done
	}
	return err
}
