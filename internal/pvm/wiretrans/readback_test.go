package wiretrans

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/testutil"
)

// These tests hold the two ways a Loopback burst is read: back by the
// goroutine that wrote it, when the socket took the write whole and no
// other reader had frames in hand, or by the pump, with its acks read by
// the ack reader. They run at the GOMAXPROCS -cpu gives.

// readers reports how many bursts the pump and the ack reader took and
// how many bursts their writer read back.
func (l *Loopback) readers() (pumped, ackRead, readBack int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batches.taken, l.acks.taken, l.readBacks
}

// pastTheBuffer returns a message size of at least least bytes that a
// fresh unix socket cannot take whole, whatever its host's default buffer:
// what such a socket holds with nothing reading it, probed by one write
// against a deadline. A socket that holds all of the probe skips the test.
func pastTheBuffer(t *testing.T, least int) int {
	t.Helper()
	dir, err := os.MkdirTemp("", "hbspk-wt-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("unix", filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	w, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if r := <-accepted; r != nil {
		defer r.Close()
	}
	const probe = 16 << 20
	_ = w.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	held, _ := w.Write(make([]byte, probe))
	if held == probe {
		t.Skipf("a unix socket here holds all of %d bytes unread", probe)
	}
	return max(least, held)
}

// exchange runs steps all-to-all supersteps of size bytes per pair.
func exchange(size, steps int) hbsp.Program {
	return func(c hbsp.Ctx) error {
		out := make([]byte, size)
		for n := 0; n < steps; n++ {
			for dst := 0; dst < c.NProcs(); dst++ {
				if dst != c.Pid() {
					if err := c.Send(dst, 1, out); err != nil {
						return err
					}
				}
			}
			if err := hbsp.SyncAll(c, "exchange"); err != nil {
				return err
			}
			if got := len(c.Moves()); got != c.NProcs()-1 {
				return fmt.Errorf("pid %d step %d: %d messages, want %d", c.Pid(), n, got, c.NProcs()-1)
			}
		}
		return nil
	}
}

func TestWarmStepIsReadBackByItsWriter(t *testing.T) {
	// A 64 B all-to-all step of four processors is about 1.2 KB on the
	// wire, which an emptied socket always takes whole: every burst is
	// read back, acked and settled by the goroutine that wrote it, and the
	// pump and the ack reader never take one. At 256 KiB a pair, or more
	// where a unix socket holds more than that unread, no burst fits in
	// the socket's buffer: the pump takes every one, and no writer reads
	// one back.
	for _, lane := range []struct {
		name, network string
		size, steps   int
		readByWriter  bool
	}{
		{"unix/64B", "unix", 64, 200, true},
		{"tcp/64B", "tcp", 64, 200, true},
		{"unix/past-the-buffer", "unix", 0, 10, false},
	} {
		t.Run(lane.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			if !lane.readByWriter {
				lane.size = pastTheBuffer(t, 256<<10)
			}
			lb, err := NewLoopback(lane.network)
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			eng := hbsp.NewConcurrent(model.WideAreaGrid(2, 2, 4, 10, 100))
			eng.Transport = func() (pvm.Transport, error) { return lb, nil }
			if _, err := eng.Run(exchange(lane.size, lane.steps)); err != nil {
				t.Fatal(err)
			}
			pumped, ackRead, readBack := lb.readers()
			t.Logf("%d steps of %d B a pair: %d bursts read back, %d pumped, %d ack bursts read apart", lane.steps, lane.size, readBack, pumped, ackRead)
			switch {
			case lane.readByWriter && (pumped != 0 || ackRead != 0 || readBack < lane.steps):
				t.Errorf("the pump took %d bursts and the ack reader %d, writers read back %d; want 0, 0 and at least one a step", pumped, ackRead, readBack)
			case !lane.readByWriter && (readBack != 0 || pumped == 0):
				t.Errorf("writers read back %d bursts and the pump took %d; want none read back", readBack, pumped)
			}
		})
	}
}
