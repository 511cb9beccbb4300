package wiretrans

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hbspk/internal/pvm"
)

// Hub is the coordinator side of a multi-process run, as the
// pvm.Transport of the coordinator's System. It listens for worker
// processes, handshakes them by (pid, nprocs, generation), and stands a
// relay task in for each remote pid (Proxy): the relay's TID is the
// worker's pid, whatever the System routes to it is forwarded down the
// worker's link, and the worker's sends and barrier entries are replayed
// onto the System — so the coordinator's own task and the remote
// processes meet in one mailbox plane and one barrier table, the
// coordinator's. The hub does not carry barriers: they are local here.
type Hub struct {
	network string
	nprocs  int
	gen     int64
	timeout time.Duration // how long a relay waits for its worker to connect
	ln      net.Listener
	sys     *pvm.System

	mu     sync.Mutex
	cond   *sync.Cond
	links  map[*link]int // every open inbound link and its pid; 0 until the handshake is through
	closed bool

	wg sync.WaitGroup
}

// NewHub listens on network/addr ("unix" + socket path, or "tcp" +
// host:port; ":0" picks a free port) and starts accepting workers.
// gen is the membership generation every worker must present; a worker
// that has not connected timeout after its relay starts fails the run.
func NewHub(network, addr string, nprocs int, gen int64, timeout time.Duration) (*Hub, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("wiretrans: hub with %d processors", nprocs)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("wiretrans: hub listen %s %s: %w", network, addr, err)
	}
	h := &Hub{
		network: network,
		nprocs:  nprocs,
		gen:     gen,
		timeout: timeout,
		ln:      ln,
		links:   make(map[*link]int),
	}
	h.cond = sync.NewCond(&h.mu)
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the listener's resolved address (the port picked for
// ":0", the socket path for unix).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Name implements pvm.Transport.
func (h *Hub) Name() string { return h.network }

// Attach implements pvm.Transport.
func (h *Hub) Attach(sys *pvm.System) error {
	h.sys = sys
	return nil
}

// Deliver implements pvm.Transport. Every TID of the run has a task in
// the coordinator's System — its own program or a worker's relay — so a
// post is staged right here: one frame drawn from the wire arena per
// batch takes a copy of every wire, lent tail included.
func (h *Hub) Deliver(dst pvm.TID, ms []pvm.Message) error {
	defer releaseAll(ms)
	size := 0
	for _, m := range ms {
		size += m.Len()
	}
	f := pvm.NewFrame(size)
	defer f.Release()
	buf := f.Bytes()[:0]
	for _, m := range ms {
		head, tail := m.Pieces()
		at := len(buf)
		buf = append(append(buf, head...), tail...)
		if err := h.sys.Inject(m.Src, dst, m.Tag, f, buf[at:len(buf):len(buf)]); err != nil {
			return &pvm.DeliveryError{Dst: dst, Err: err}
		}
	}
	return nil
}

// Flush implements pvm.Transport: a post is observable when Deliver
// returns.
func (h *Hub) Flush(pvm.TID) error { return nil }

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			// Listener closed: either Close or process teardown.
			return
		}
		h.wg.Add(1)
		go h.admit(conn)
	}
}

// admit handshakes one inbound connection and registers it by pid. The
// link is tracked from before its first read, so Close cuts a dialer
// that never says HELLO short instead of waiting its deadline out.
func (h *Hub) admit(conn net.Conn) {
	defer h.wg.Done()
	lk := newLink(conn, h.network)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = lk.close()
		return
	}
	h.links[lk] = 0
	h.mu.Unlock()
	hello, err := lk.readHello()
	if err != nil {
		h.drop(lk)
		return
	}
	pid, why := int(hello.pid), ""
	switch {
	case hello.role != roleWorker:
		why = fmt.Sprintf("role %d is not a worker", hello.role)
	case pid < 1 || pid >= h.nprocs:
		why = fmt.Sprintf("pid %d out of range [1,%d)", pid, h.nprocs)
	case int(hello.nprocs) != h.nprocs:
		why = fmt.Sprintf("nprocs %d, hub has %d", hello.nprocs, h.nprocs)
	case hello.gen != h.gen:
		why = fmt.Sprintf("generation %d, hub is at %d", hello.gen, h.gen)
	}
	h.mu.Lock()
	if why == "" && (h.closed || h.linkOf(pid) != nil) {
		why = fmt.Sprintf("pid %d already connected", pid)
	}
	if why == "" {
		h.links[lk] = pid
		h.cond.Broadcast()
	}
	h.mu.Unlock()
	if why != "" {
		_ = lk.sendWelcome(welcomeRejected, why)
		h.drop(lk)
	} else if err := lk.sendWelcome(welcomeOK, ""); err != nil {
		h.drop(lk)
	}
}

// linkOf returns the admitted link of worker pid, or nil. Caller holds mu.
func (h *Hub) linkOf(pid int) *link {
	for lk, p := range h.links {
		if p == pid {
			return lk
		}
	}
	return nil
}

// drop forgets a link and closes it.
func (h *Hub) drop(lk *link) {
	h.mu.Lock()
	delete(h.links, lk)
	h.mu.Unlock()
	_ = lk.close()
}

// waitConn blocks until the worker for pid has connected.
func (h *Hub) waitConn(pid int) (*link, error) {
	deadline := time.Now().Add(h.timeout)
	timer := time.AfterFunc(h.timeout, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer timer.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if lk := h.linkOf(pid); lk != nil {
			return lk, nil
		}
		if h.closed {
			return nil, fmt.Errorf("wiretrans: hub closed before worker %d connected", pid)
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("wiretrans: worker %d did not connect within %v: %w", pid, h.timeout, pvm.ErrTimeout)
		}
		h.cond.Wait()
	}
}

// Proxy tells the engine which TIDs run elsewhere: none for pid 0, the
// coordinator's own, and for a worker's pid the relay to spawn in its
// place — spawned in pid order, so pid == TID in every process. If the
// worker never connects, or its link drops without a BYE, the relay
// halts the whole System so the coordinator fails fast instead of
// hanging at the next barrier.
func (h *Hub) Proxy(tid pvm.TID) func(*pvm.Task) error {
	if tid == 0 {
		return nil
	}
	return func(task *pvm.Task) error {
		lk, err := h.waitConn(int(tid))
		if err == nil {
			err = h.relay(task, lk)
			h.drop(lk)
		}
		if err != nil {
			h.sys.Halt()
		}
		return err
	}
}

// relay replays one worker's frames onto the System, in link order: a
// BATCH is injected before the BARRIER behind it arrives, so what the
// worker sent is in its destinations' mailboxes before anyone leaves
// that barrier. And it answers in the same order: when the barrier
// completes, every participant has flushed, so the relay's mailbox holds
// all the superstep sent this worker; it goes down the link first and
// the verdict after it, which is what lets the worker's engine drain
// without blocking the moment its barrier returns.
func (h *Hub) relay(task *pvm.Task, lk *link) error {
	pid := task.TID()
	var msgs []pvm.Message
	for {
		// A frame is released once handled; on a path that ends the relay
		// it is left to the collector.
		kind, body, f, err := lk.readFrame()
		if err != nil {
			return fmt.Errorf("wiretrans: worker %d link: %w: %v", pid, pvm.ErrPeerLost, err)
		}
		switch kind {
		case frameBatch:
			_, code, detail := injectBatch(h.sys, f, body)
			f.Release()
			if code != ackOK {
				return fmt.Errorf("wiretrans: worker %d send: %w", pid, ackCause(code, detail))
			}
		case frameBarrier:
			name, count, d, deposit, err := unpackBarrier(body)
			if err != nil {
				return fmt.Errorf("wiretrans: worker %d: %w", pid, err)
			}
			res, berr := task.BarrierExchange(name, count, d, deposit)
			f.Release()
			msgs = task.AppendRecvAll(msgs[:0], pvm.AnySource, pvm.AnyTag)
			err = lk.post(pid, msgs, false)
			clear(msgs)
			if err == nil {
				err = lk.writeFrame(packBarrierReply(res, berr))
			}
			if err != nil {
				return err
			}
		case frameBye:
			return nil
		default:
			return fmt.Errorf("%w: worker %d sent kind %d", ErrBadFrame, pid, kind)
		}
	}
}

// packBarrier and unpackBarrier are the BARRIER frame: name, count,
// the deadline in nanoseconds (zero: none — a millisecond field would
// turn a sub-millisecond deadline into "wait forever"), the deposit. A
// body that does not decode is ErrBadFrame.
func packBarrier(name string, count int, d time.Duration, deposit []byte) []byte {
	return pvm.Wrap(nil).PackString(name).PackInt32(int32(count)).PackInt64(int64(d)).PackBytes(deposit).Bytes()
}

func unpackBarrier(body []byte) (name string, count int, d time.Duration, deposit []byte, err error) {
	b := pvm.Wrap(body)
	name, err = b.UnpackString()
	var n int32
	if err == nil {
		n, err = b.UnpackInt32()
	}
	var ns int64
	if err == nil {
		ns, err = b.UnpackInt64()
	}
	if err == nil {
		deposit, err = b.UnpackBytes()
	}
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("%w: BARRIER: %v", ErrBadFrame, err)
	}
	return name, int(n), time.Duration(ns), deposit, nil
}

// barrierErrs are the typed causes a BARRIERERR frame can carry, by
// code; code 0 is any other error, carried as its text.
var barrierErrs = []error{nil, pvm.ErrTimeout, pvm.ErrCanceled, pvm.ErrHalted}

// packBarrierReply and unpackBarrierReply are the barrier's answer:
// BARRIEROK with every participant's deposit keyed by pid, or BARRIERERR
// with the typed cause, so a worker sees the errors an in-proc task sees.
// A reply that does not decode — a short body, a negative count, a code
// no cause has — is ErrBadFrame.
func packBarrierReply(res map[pvm.TID][]byte, err error) (kind byte, body []byte) {
	if err != nil {
		code := len(barrierErrs) - 1
		for code > 0 && !errors.Is(err, barrierErrs[code]) {
			code--
		}
		return frameBarrierErr, pvm.Wrap(nil).PackInt32(int32(code)).PackString(err.Error()).Bytes()
	}
	b := pvm.Wrap(nil).PackInt32(int32(len(res)))
	for tid, data := range res {
		b.PackInt32(int32(tid)).PackBytes(data)
	}
	return frameBarrierOK, b.Bytes()
}

func unpackBarrierReply(kind byte, body []byte) (map[pvm.TID][]byte, error) {
	b := pvm.Wrap(body)
	n, err := b.UnpackInt32()
	if err != nil {
		return nil, fmt.Errorf("%w: barrier reply: %v", ErrBadFrame, err)
	}
	if kind == frameBarrierErr {
		detail, err := b.UnpackString()
		switch {
		case err != nil:
			return nil, fmt.Errorf("%w: barrier reply: %v", ErrBadFrame, err)
		case n < 0 || int(n) >= len(barrierErrs):
			return nil, fmt.Errorf("%w: barrier reply: error code %d", ErrBadFrame, n)
		case n > 0:
			return nil, fmt.Errorf("wiretrans: barrier: %w: %s", barrierErrs[n], detail)
		}
		return nil, fmt.Errorf("wiretrans: barrier failed: %s", detail)
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: barrier reply: %d deposits", ErrBadFrame, n)
	}
	res := make(map[pvm.TID][]byte)
	for ; n > 0; n-- {
		tid, err := b.UnpackInt32()
		var dep []byte
		if err == nil {
			dep, err = b.UnpackBytes()
		}
		if err != nil {
			return nil, fmt.Errorf("%w: barrier reply: %v", ErrBadFrame, err)
		}
		// The waiter reads the deposits after the frame is released.
		res[pvm.TID(tid)] = bytes.Clone(dep)
	}
	return res, nil
}

// Close implements pvm.Transport and tears the hub down: the listener
// stops, every inbound link closes — admitted or still in its handshake
// — and pending waitConn calls fail.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	links := make([]*link, 0, len(h.links))
	for lk := range h.links {
		links = append(links, lk)
	}
	h.cond.Broadcast()
	h.mu.Unlock()
	err := h.ln.Close()
	for _, lk := range links {
		_ = lk.close()
	}
	h.wg.Wait()
	return err
}
