package wiretrans

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hbspk/internal/collective"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
	"hbspk/internal/trace"
)

const testTimeout = 15 * time.Second

// newHub listens on a fresh endpoint of the network.
func newHub(t *testing.T, network string, nprocs int, gen int64) *Hub {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "hub.sock")
	}
	h, err := NewHub(network, addr, nprocs, gen, testTimeout)
	if err != nil {
		t.Fatalf("NewHub: %v", err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

// startHub brings up a hub plus a bare coordinator System — no engine —
// with the pid-0 task and the relays spawned in pid order (so pid == TID).
func startHub(t *testing.T, network string, nprocs int, pid0 func(*pvm.Task) error) (*Hub, *pvm.System) {
	t.Helper()
	h := newHub(t, network, nprocs, 1)
	sys := pvm.NewSystem()
	if err := sys.SetTransport(h); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	if tid := sys.Spawn("pid0", pid0); tid != 0 {
		t.Fatalf("pid0 spawned as TID %d", tid)
	}
	for pid := 1; pid < nprocs; pid++ {
		sys.Spawn(fmt.Sprintf("relay%d", pid), h.Proxy(pvm.TID(pid)))
	}
	return h, sys
}

// startWorker dials the hub as pid and runs body as that pid's task in a
// System of the worker's own, placeholders in the other TIDs.
func startWorker(t *testing.T, h *Hub, pid, nprocs int, body func(*pvm.Task) error) (*Worker, *pvm.System) {
	t.Helper()
	w, err := DialWorker(h.network, h.Addr(), pid, nprocs, 1, testTimeout)
	if err != nil {
		t.Fatalf("DialWorker: %v", err)
	}
	sys := pvm.NewSystem()
	if err := sys.SetTransport(w); err != nil {
		t.Fatalf("SetTransport: %v", err)
	}
	for tid := 0; tid < nprocs; tid++ {
		if proxy := w.Proxy(pvm.TID(tid)); proxy != nil {
			sys.Spawn("elsewhere", proxy)
		} else {
			sys.Spawn("worker", body)
		}
	}
	return w, sys
}

// diffSizes are the payloads of one all-to-all step of diffProg: empty,
// small, and larger than a socket buffer.
var diffSizes = []int{0, 5, 70<<10 + 3}

// diffFill is a payload only its coordinates and the seed determine.
func diffFill(seed int64, src, dst, step, size int) []byte {
	p := make([]byte, size)
	x := uint64(seed) + uint64(src)*1000003 + uint64(dst)*10007 + uint64(step)*101 + uint64(size)
	for i := range p {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 56)
	}
	return p
}

// pidTrace is what one processor of diffProg saw: a digest of every
// delivery in the order Moves presented it (Src, Tag, payload), the
// broadcast it received and the total it folded.
type pidTrace struct {
	Deliveries uint64
	Count      int
	Fold       []int64
}

// diffProg is one seeded SPMD program over the engine's whole surface as
// a multi-process run uses it: root-scope all-to-all steps with several
// messages per pair (self included), a sub-scope step inside each
// cluster while the other cluster runs its own, and two library
// collectives that mix scopes. The second cluster opens with a step of
// its own, so processes meet their scopes in different orders and must
// still agree on every wire tag. Each processor writes its own slot of out.
func diffProg(seed int64, out []pidTrace) hbsp.Program {
	return func(c hbsp.Ctx) error {
		pid, n := c.Pid(), c.NProcs()
		digest := fnv.New64a()
		tr := &out[pid]
		record := func() {
			for _, m := range c.Moves() {
				fmt.Fprintf(digest, "%d/%d/%d:", m.Src, m.Tag, len(m.Payload))
				digest.Write(m.Payload)
				tr.Count++
			}
		}
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		if cluster != c.Tree().Root.Children[0] {
			if err := c.Sync(cluster, "head start"); err != nil { // scope-uniform: all leaves of one cluster branch together
				return err
			}
		}
		for step := 0; step < 2; step++ {
			for dst := 0; dst < n; dst++ {
				for tag, size := range diffSizes {
					if err := c.Send(dst, tag, diffFill(seed, pid, dst, step, size)); err != nil {
						return err
					}
				}
			}
			if err := hbsp.SyncAll(c, "all-to-all"); err != nil {
				return err
			}
			record()
		}
		for _, peer := range cluster.Pids() {
			if err := c.Send(peer, 9, diffFill(seed, pid, peer, 2, 300)); err != nil {
				return err
			}
		}
		if err := c.Sync(cluster, "in-cluster"); err != nil {
			return err
		}
		record()
		var data []byte
		if c.Self() == c.Tree().FastestLeaf() {
			data = diffFill(seed, pid, -1, 3, 40<<10)
		}
		got, err := collective.BcastHier(c, data, false)
		if err != nil {
			return err
		}
		digest.Write(got)
		tr.Fold, err = collective.AllReduce(c, []int64{seed * int64(pid+1), int64(len(got))}, collective.Sum)
		tr.Deliveries = digest.Sum64()
		return err
	}
}

// diffTree is the two-level machine diffProg runs on: two clusters of two.
func diffTree() *model.Tree { return model.WideAreaGrid(2, 2, 3, 10, 100) }

// runProcesses runs prog as one "process" per leaf of the tree — a hub
// for pid 0, a dialed worker for every other — each with a System, a
// tree and a Verify-armed Concurrent.Run of its own: everything an OS
// process has but the address space. It returns each Run's error and
// report by pid.
func runProcesses(t *testing.T, network string, tree func() *model.Tree, prog hbsp.Program) ([]error, []*trace.Report) {
	t.Helper()
	nprocs := tree().NProcs()
	h := newHub(t, network, nprocs, 1)
	errs := make([]error, nprocs)
	reps := make([]*trace.Report, nprocs)
	var wg sync.WaitGroup
	for pid := range errs {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			eng := hbsp.NewConcurrent(tree())
			eng.Verify = true
			eng.Transport = func() (pvm.Transport, error) {
				if pid == 0 {
					return h, nil
				}
				return DialWorker(network, h.Addr(), pid, nprocs, 1, testTimeout)
			}
			reps[pid], errs[pid] = eng.Run(prog)
		}(pid)
	}
	wg.Wait()
	return errs, reps
}

// TestHubWorkerSPMD is the multi-process differential test: a hub and
// three workers (runProcesses) must give every pid the deliveries, in the
// order, and the fold that the same program gives it on one in-proc
// Concurrent, with Verify's happens-before checker armed across the links.
// Every scope of the run has a member in another process, whose work and
// flows no process sees: every step a process records carries no terms,
// where the in-proc reference's carry the model's.
func TestHubWorkerSPMD(t *testing.T) {
	testutil.CheckGoroutines(t)
	const seed, nprocs = 20260118, 4
	want := make([]pidTrace, nprocs)
	ref := hbsp.NewConcurrent(diffTree())
	ref.Verify = true
	refRep, err := ref.Run(diffProg(seed, want))
	if err != nil {
		t.Fatalf("in-proc reference: %v", err)
	}
	if !slices.ContainsFunc(refRep.Steps, func(s trace.Step) bool { return s.H > 0 && s.Flows > 0 && s.Sync > 0 }) {
		t.Errorf("no step of the in-proc reference has terms: %+v", refRep.Steps)
	}
	for pid, tr := range want {
		if wantCount := (2*nprocs*len(diffSizes) + 2); tr.Count != wantCount || len(tr.Fold) != 2 {
			t.Fatalf("reference p%d: %d deliveries (want %d), fold %v", pid, tr.Count, wantCount, tr.Fold)
		}
	}

	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			got := make([]pidTrace, nprocs)
			errs, reps := runProcesses(t, network, diffTree, diffProg(seed, got))
			for pid, err := range errs {
				if err != nil {
					t.Errorf("process of p%d: %v", pid, err)
					continue
				}
				for _, s := range reps[pid].Steps {
					if s.W != 0 || s.H != 0 || s.Comm != 0 || s.Sync != 0 || s.Flows != 0 ||
						s.GatingPid != -1 || s.Imbalance != 0 {
						t.Errorf("process of p%d: step %d (%s on %s) spans processes but has terms: %+v",
							pid, s.Index, s.Label, s.ScopeLabel, s)
					}
				}
			}
			for pid := range want {
				if !reflect.DeepEqual(got[pid], want[pid]) {
					t.Errorf("p%d over %s: %+v, in-proc %+v", pid, network, got[pid], want[pid])
				}
			}
		})
	}
}

// TestFailedProgramFailsEveryProcess: no watchdog sees across processes,
// so a processor whose program fails must not leave the others parked at
// a barrier it will never reach. A failing worker departs without BYE and
// its relay halts the coordinator; a failing coordinator halts itself;
// either way every Run returns an error, promptly.
func TestFailedProgramFailsEveryProcess(t *testing.T) {
	boom := errors.New("boom")
	for _, failing := range []int{0, 2} {
		t.Run(fmt.Sprintf("p%d", failing), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			start := time.Now()
			errs, _ := runProcesses(t, "unix", func() *model.Tree { return model.Homogeneous(3, 0) }, func(c hbsp.Ctx) error {
				if err := hbsp.SyncAll(c, "one"); err != nil {
					return err
				}
				if c.Pid() == failing {
					return boom
				}
				return hbsp.SyncAll(c, "two") // the failed processor never gets here
			})
			for pid, err := range errs {
				if err == nil {
					t.Errorf("process of p%d finished cleanly beside a failed p%d", pid, failing)
				}
			}
			if !errors.Is(errs[failing], boom) {
				t.Errorf("process of p%d: %v, want its own failure", failing, errs[failing])
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("the run took %v to come down", took)
			}
		})
	}
}

func TestHubRejectsBadHandshake(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := newHub(t, "tcp", 3, 7)

	cases := []struct {
		name        string
		pid, nprocs int
		gen         int64
	}{
		{"pid out of range", 5, 3, 7},
		{"pid zero is the coordinator", 0, 3, 7},
		{"nprocs mismatch", 1, 4, 7},
		{"generation mismatch", 1, 3, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DialWorker("tcp", h.Addr(), tc.pid, tc.nprocs, tc.gen, 3*time.Second); err == nil {
				t.Fatal("handshake accepted")
			}
		})
	}
	// A valid handshake still goes through afterwards.
	w, err := DialWorker("tcp", h.Addr(), 1, 3, 7, 3*time.Second)
	if err != nil {
		t.Fatalf("valid handshake rejected: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestHubCloseDoesNotWaitForASilentDialer(t *testing.T) {
	// A connection that never says HELLO sits in the handshake read for
	// handshakeTimeout; Close must cut it short, not wait it out.
	testutil.CheckGoroutines(t)
	h := newHub(t, "tcp", 2, 1)
	conn, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// The hub has the connection once it is tracked.
	for deadline := time.Now().Add(testTimeout); ; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		n := len(h.links)
		h.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hub never accepted the connection")
		}
	}
	start := time.Now()
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a silent dialer attached", took)
	}
}

func TestWorkerLinkDropHaltsCoordinator(t *testing.T) {
	// A worker that vanishes without BYE must not hang the coordinator:
	// the relay halts the System, so pid 0 (parked in a receive) wakes
	// with a typed error instead of blocking forever.
	testutil.CheckGoroutines(t)
	const nprocs = 2
	pid0Err := make(chan error, 1)
	h, sys := startHub(t, "tcp", nprocs, func(task *pvm.Task) error {
		m, err := task.RecvTimeout(pvm.AnySource, 9, testTimeout)
		if err == nil {
			m.Release()
		}
		pid0Err <- err
		return nil
	})

	w, err := DialWorker("tcp", h.Addr(), 1, nprocs, 1, testTimeout)
	if err != nil {
		t.Fatalf("DialWorker: %v", err)
	}
	// Abrupt close: no BYE.
	_ = w.lk.close()

	err = <-pid0Err
	if !errors.Is(err, pvm.ErrHalted) {
		t.Fatalf("pid0 receive after worker drop = %v, want ErrHalted", err)
	}
	if werr := sys.Wait(); werr == nil || !errors.Is(werr, pvm.ErrPeerLost) {
		t.Fatalf("coordinator Wait = %v, want a pvm.ErrPeerLost relay error", werr)
	}
}

func TestWorkerBarrierTimeoutIsTyped(t *testing.T) {
	// A barrier the peers never complete must come back to the worker's
	// task as the same typed ErrTimeout the in-proc API returns — for a
	// deadline under a millisecond too, which a coarser unit on the wire
	// would turn into "wait forever".
	testutil.CheckGoroutines(t)
	const nprocs = 2
	h, sys := startHub(t, "tcp", nprocs, func(task *pvm.Task) error {
		// pid0 never enters the barrier.
		_, err := task.RecvTimeout(pvm.AnySource, 9, testTimeout)
		if errors.Is(err, pvm.ErrHalted) {
			return nil
		}
		return err
	})

	w, wsys := startWorker(t, h, 1, nprocs, func(task *pvm.Task) error {
		for _, d := range []time.Duration{300 * time.Millisecond, 500 * time.Microsecond} {
			if err := task.BarrierTimeout("nobody-comes", nprocs, d); !errors.Is(err, pvm.ErrTimeout) {
				return fmt.Errorf("barrier with a %v deadline = %v, want pvm.ErrTimeout", d, err)
			}
		}
		return nil
	})
	if err := wsys.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sys.Halt()
	_ = sys.Wait()
}

func TestSendBatchesSplitsAtMaxFrame(t *testing.T) {
	// A relay forwards a superstep's traffic from every sender at once;
	// together it may exceed what one frame can carry, and must then go
	// out as several BATCH frames, each within the limit, nothing lost
	// and nothing reordered.
	testutil.CheckGoroutines(t)
	sys := pvm.NewSystem()
	parked, stop := lendMailbox(sys)
	big := make([]byte, 6<<20)
	sys.Spawn("send", func(task *pvm.Task) error {
		for tag := 0; tag < 3; tag++ {
			if err := task.Send(parked.TID(), tag, pvm.Wrap(big)); err != nil {
				return err
			}
		}
		return nil
	})
	stop()
	if err := sys.Wait(); err != nil {
		t.Fatal(err)
	}
	msgs := parked.AppendRecvAll(nil, pvm.AnySource, pvm.AnyTag)

	a, b := net.Pipe()
	defer a.Close()
	werr := make(chan error, 1)
	go func() {
		werr <- newLink(b, "test").post(7, msgs, false)
		_ = b.Close()
	}()
	var perFrame []int32
	for {
		kind, body, _, n, err := ReadFrame(a, nil)
		if err != nil {
			break // the writer is done
		}
		dec := pvm.Wrap(body)
		_, _ = dec.UnpackInt64()
		dst, _ := dec.UnpackInt32()
		count, _ := dec.UnpackInt32()
		if kind != frameBatch || dst != 7 || n-frameHeader > MaxFrame {
			t.Fatalf("frame kind %d for %d, %d bytes", kind, dst, n)
		}
		for i := int32(0); i < count; i++ {
			_, _ = dec.UnpackInt32()
			tag, _ := dec.UnpackInt64()
			wire, err := dec.UnpackBytes()
			if err != nil || len(wire) != len(big) || int(tag) != len(perFrame)*2+int(i) {
				t.Fatalf("frame %d message %d: tag %d, %d bytes, %v", len(perFrame), i, tag, len(wire), err)
			}
		}
		perFrame = append(perFrame, count)
	}
	if err := <-werr; err != nil {
		t.Fatalf("post: %v", err)
	}
	if !reflect.DeepEqual(perFrame, []int32{2, 1}) {
		t.Fatalf("messages per frame = %v, want [2 1]", perFrame)
	}
}
