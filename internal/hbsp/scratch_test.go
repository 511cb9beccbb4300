package hbsp

import (
	"bytes"
	"fmt"
	"testing"

	"hbspk/internal/fabric"
)

// TestSpanWithoutARecorderAllocatesNothing holds the collective bracket
// with observability off to zero allocations, on an engine's Ctx and on
// a foreign one: the closer that lowers the collective depth is built
// once per processor, not once per call.
func TestSpanWithoutARecorderAllocatesNothing(t *testing.T) {
	var engine, foreign float64
	_, err := RunVirtual(superstepTree(), fabric.PureModel(), func(c Ctx) error {
		if c.Pid() == 0 {
			engine = testing.AllocsPerRun(100, func() { Span(c, "bracket")(64) })
			foreign = testing.AllocsPerRun(100, func() { Span(nil, "bracket")(64) })
		}
		return SyncAll(c, "done")
	})
	if err != nil {
		t.Fatal(err)
	}
	if engine != 0 || foreign != 0 {
		t.Errorf("a Span with no recorder allocates %.1f times on an engine's Ctx and %.1f on a foreign one, want 0", engine, foreign)
	}
}

// TestSendScratchRecyclesAfterItsMessages holds SendScratch's lifetime on
// Concurrent: the scratch goes back to the wire arena after the first
// successful Sync that leaves the outbox empty, and not before.
//
//   - Under Verify it is overwritten with Poison on its way back, so a
//     sender that reads its scratch after the Sync reads Poison, while
//     the receiver reads what was sent.
//   - Under a chaos plan that delays every message two supersteps, the
//     scratch of a held message is kept until the message is flushed: a
//     scratch of the same size drawn and written after the first Sync,
//     which would reuse a recycled one, does not reach the held bytes,
//     and every delivery reads what its sender wrote.
func TestSendScratchRecyclesAfterItsMessages(t *testing.T) {
	const n, sends = 3000, 3
	fill := func(i int) byte { return byte(0xA0 + i) }
	t.Run("verify", func(t *testing.T) {
		eng := NewConcurrent(superstepTree())
		eng.Verify = true
		_, err := eng.Run(func(c Ctx) error {
			var s []byte
			if c.Pid() == 0 {
				s = SendScratch(c, n)
				for i := range s {
					s[i] = fill(0)
				}
				if err := c.Send(1, 0, s); err != nil {
					return err
				}
			}
			if err := SyncAll(c, "send"); err != nil {
				return err
			}
			if c.Pid() == 1 {
				if m := c.Moves(); len(m) != 1 || !bytes.Equal(m[0].Payload, bytes.Repeat([]byte{fill(0)}, n)) {
					return fmt.Errorf("pid 1: the sent scratch did not arrive whole")
				}
			}
			if s != nil && !bytes.Equal(s, bytes.Repeat([]byte{Poison}, n)) {
				return fmt.Errorf("pid 0: the scratch read after its Sync is not Poison")
			}
			return SyncAll(c, "after")
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("delay", func(t *testing.T) {
		eng := NewConcurrent(superstepTree())
		eng.Chaos = &fabric.ChaosPlan{Seed: 1, Delay: 1, DelaySteps: 2}
		_, err := eng.Run(func(c Ctx) error {
			got := 0
			for step := 0; step < sends+3; step++ {
				if c.Pid() == 0 && step < sends {
					s := SendScratch(c, n)
					for i := range s {
						s[i] = fill(step)
					}
					if err := c.Send(1, step, s); err != nil {
						return err
					}
				}
				if err := SyncAll(c, "step"); err != nil {
					return err
				}
				for _, m := range c.Moves() {
					got++
					if !bytes.Equal(m.Payload, bytes.Repeat([]byte{fill(m.Tag)}, n)) {
						return fmt.Errorf("pid %d: message %d arrived overwritten", c.Pid(), m.Tag)
					}
				}
			}
			if c.Pid() == 1 && got != sends {
				return fmt.Errorf("pid 1: %d of %d delayed messages arrived", got, sends)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
