package wiretrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

// ringProg exchanges a tagged value around the ring each superstep and
// verifies the arithmetic, so any loss, reordering or corruption on
// the wire surfaces as a hard error.
func ringProg(steps int) hbsp.Program {
	return func(c hbsp.Ctx) error {
		pid, n := c.Pid(), c.NProcs()
		for s := 0; s < steps; s++ {
			want := uint64(((pid+n-1)%n)*1000 + s)
			payload := binary.BigEndian.AppendUint64(nil, uint64(pid*1000+s))
			if err := c.Send((pid+1)%n, s, payload); err != nil {
				return err
			}
			if err := hbsp.SyncAll(c, fmt.Sprintf("ring%d", s)); err != nil {
				return err
			}
			moves := c.Moves()
			if len(moves) != 1 {
				return fmt.Errorf("p%d step %d: %d moves, want 1", pid, s, len(moves))
			}
			got := binary.BigEndian.Uint64(moves[0].Payload)
			if got != want {
				return fmt.Errorf("p%d step %d: received %d, want %d", pid, s, got, want)
			}
		}
		return nil
	}
}

func TestConcurrentEngineOverWire(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
			eng.Verify = true // vector-clock checker across the wire
			eng.Transport = func() (pvm.Transport, error) { return NewLoopback(network) }
			if _, err := eng.Run(ringProg(5)); err != nil {
				t.Fatalf("run over %s: %v", network, err)
			}
		})
	}
}

// keptSizes are the payloads every processor sends every other one each
// superstep of keepProg: several per destination, so a wire frame
// carries a batch, from empty to larger than a socket buffer.
var keptSizes = []int{3, 64<<10 + 5, 0, 200}

// keptFill is the payload of message i from src to dst in a superstep.
func keptFill(src, dst, step, i int) []byte {
	p := make([]byte, keptSizes[i])
	seed := byte(src*89 + dst*37 + step*11 + i*5 + 1)
	const period = 251 // prime, so the pattern never lines up with a power-of-two boundary
	for j := 0; j < len(p) && j < period; j++ {
		p[j] = seed + byte(j)*7
	}
	for j := period; j < len(p); j *= 2 {
		copy(p[j:], p[:j])
	}
	return p
}

// heldPayloads keeps the very slices a superstep delivered — not copies
// — with what each must still read as later.
type heldPayloads struct {
	src, tag []int
	payload  [][]byte
}

func holdPayloads(moves []hbsp.Message) heldPayloads {
	var h heldPayloads
	for _, m := range moves {
		h.src, h.tag, h.payload = append(h.src, m.Src), append(h.tag, m.Tag), append(h.payload, m.Payload)
	}
	return h
}

// check compares what was delivered to dst in a superstep with what was
// sent: every sender's messages, in send order — each once, or under a
// duplicating chaos plan once or twice running.
func (h heldPayloads) check(dst, n, step int, dups bool) error {
	k := 0
	for src := 0; src < n; src++ {
		for i := range keptSizes {
			want, from := keptFill(src, dst, step, i), k
			for k < len(h.payload) && h.src[k] == src && h.tag[k] == i && k-from < 2 {
				if !bytes.Equal(h.payload[k], want) {
					return fmt.Errorf("p%d: payload %d from p%d of step %d does not read as sent", dst, i, src, step)
				}
				k++
			}
			if k == from || (k-from > 1 && !dups) {
				return fmt.Errorf("p%d step %d: %d copies of message %d from p%d, at %d of %d delivered", dst, step, k-from, i, src, from, len(h.payload))
			}
		}
	}
	if k != len(h.payload) {
		return fmt.Errorf("p%d step %d: %d messages delivered, %d accounted for", dst, step, len(h.payload), k)
	}
	return nil
}

// poisoned checks that every payload byte now reads as hbsp.Poison: the
// engine has retired the superstep's delivery.
func (h heldPayloads) poisoned(dst, step int) error {
	for k, p := range h.payload {
		if bytes.Count(p, poison) != len(p) {
			return fmt.Errorf("p%d: payload %d from p%d of step %d outlived its two Syncs unpoisoned", dst, h.tag[k], h.src[k], step)
		}
	}
	return nil
}

// poison is the one byte hbsp.Poison, and scribble what keepProg
// overwrites its send buffers with: as long as the largest of them.
var (
	poison   = []byte{hbsp.Poison}
	scribble = bytes.Repeat([]byte{0xEE}, 64<<10+5)
)

// keptSteps is how many supersteps keepProg runs: four windows are
// checked intact after one more Sync and poisoned after the second.
// That fails an engine that releases a window one Sync early, on every
// lane, and one that retires a window unpoisoned, on every Verify lane.
const keptSteps = 6

// keepProg runs steps all-to-all supersteps and holds each one's
// delivered payload slices — not copies — for the two Syncs the lifetime
// rule of Ctx.Moves gives them: after the next Sync they must still read
// as sent, and after the one behind it, when verify says the engine runs
// under Verify, as poison. With reuse it sends every superstep from the
// same buffers, which it overwrites the moment Sync returns — before its
// peers, still inside theirs, have necessarily read a byte.
func keepProg(steps int, reuse, dups, verify bool) hbsp.Program {
	return func(c hbsp.Ctx) error {
		pid, n := c.Pid(), c.NProcs()
		var bufs [][]byte
		var last, older heldPayloads
		delivered := 0
		for step := 0; step < steps; step++ {
			for dst := 0; dst < n; dst++ {
				for i := range keptSizes {
					p := keptFill(pid, dst, step, i)
					if reuse {
						if step == 0 {
							bufs = append(bufs, make([]byte, len(p)))
						}
						buf := bufs[dst*len(keptSizes)+i]
						copy(buf, p)
						p = buf
					}
					if err := c.Send(dst, i, p); err != nil {
						return err
					}
				}
			}
			err := hbsp.SyncAll(c, fmt.Sprintf("keep%d", step))
			for _, buf := range bufs {
				copy(buf, scribble)
			}
			if err != nil {
				return err
			}
			h := holdPayloads(c.Moves())
			delivered += len(h.payload)
			if err := h.check(pid, n, step, dups); err != nil {
				return err
			}
			if step > 0 {
				if err := last.check(pid, n, step-1, dups); err != nil {
					return fmt.Errorf("one Sync after its delivery: %w", err)
				}
			}
			if verify && step > 1 {
				if err := older.poisoned(pid, step-2); err != nil {
					return err
				}
			}
			older, last = last, h
		}
		if dups && delivered == steps*n*len(keptSizes) {
			return fmt.Errorf("p%d: the plan duplicated nothing", pid)
		}
		return nil
	}
}

func TestDeliveredPayloadsOutliveLaterSupersteps(t *testing.T) {
	// The lifetime rule of DESIGN §5.4 on every transport: a payload slice
	// a superstep delivered reads as sent after one more Sync, and as
	// Verify's poison after the second — the pooled wire it was copied
	// into in-proc, or the frame it arrived in over a socket, is on its way
	// back to the arena. The transport twin of
	// TestPoolRecyclingNeverAliasesLiveMessage.
	for _, tf := range pvm.TransportFactories() {
		t.Run(tf.Name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
			eng.Verify = true
			eng.Transport = tf.New
			if _, err := eng.Run(keepProg(keptSteps, false, false, true)); err != nil {
				t.Fatalf("run over %s: %v", tf.Name, err)
			}
		})
	}
}

func TestSentSliceIsFreeAfterSync(t *testing.T) {
	// The sender's half of the same contract, on every transport: Send
	// keeps the caller's slice by reference, and Concurrent is done with it
	// when the Sync that delivers it returns — written to the socket, or
	// copied into the receiver's wire. Every processor sends keptSteps
	// supersteps from one set of buffers it scribbles over after each Sync,
	// while it holds what it received for as long as the rule lets it; a byte the
	// engine still borrowed then would reach a receiver scribbled. Under
	// Verify the checksum fields sit in front of the borrowed payload, and
	// under a duplicating plan two wires borrow one slice.
	for _, tf := range pvm.TransportFactories() {
		for _, lane := range []string{"plain", "verify", "duplicate"} {
			t.Run(tf.Name+"/"+lane, func(t *testing.T) {
				testutil.CheckGoroutines(t)
				eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
				eng.Verify = lane == "verify"
				if lane == "duplicate" {
					eng.Chaos = &fabric.ChaosPlan{Seed: 17, Duplicate: .3}
				}
				eng.Transport = tf.New
				if _, err := eng.Run(keepProg(keptSteps, true, lane == "duplicate", eng.Verify)); err != nil {
					t.Fatalf("run over %s: %v", tf.Name, err)
				}
			})
		}
	}
}

func TestAbruptCloseIsDetectedAsPeerFailure(t *testing.T) {
	// The abrupt-connection-close chaos case: the link under a running
	// engine severs with no goodbye mid-run. The run must fail fast —
	// typed, not hung — with the shrink protocol reporting the
	// unreachable peer as failed with cause "link lost".
	testutil.CheckGoroutines(t)
	trc := make(chan *Loopback, 1)
	eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
	eng.Transport = func() (pvm.Transport, error) {
		tr, err := NewLoopback("tcp")
		if err == nil {
			// The ring program sends 4 batch frames per superstep; sever
			// partway through the run, past the first barrier.
			tr.Sever(6)
			trc <- tr
		}
		return tr, err
	}
	start := time.Now()
	_, err := eng.Run(ringProg(50))
	elapsed := time.Since(start)
	<-trc
	if err == nil {
		t.Fatal("run over a severed link succeeded")
	}
	var pf *hbsp.ErrPeerFailed
	switch {
	case errors.As(err, &pf):
		if pf.Cause != "link lost" {
			t.Fatalf("ErrPeerFailed cause = %q, want \"link lost\"", pf.Cause)
		}
	case errors.Is(err, pvm.ErrPeerLost):
		// The severing deliver was a self-send: no peer to blame, but
		// still the typed transport error, not a hang.
	default:
		t.Fatalf("run error = %v, want ErrPeerFailed or pvm.ErrPeerLost", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("failure detection took %v", elapsed)
	}
}
