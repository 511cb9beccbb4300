package hbsp

import (
	"fmt"
	"reflect"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// outboxSends is the number of messages every processor queues before
// its first sync in TestOutboxKeepsOrderAndLetsGo.
const outboxSends = 12

// outboxDst interleaves the destinations of a processor's i-th send on
// the 2×2 grid: even sends stay in its cluster, odd ones alternate
// between the two processors of the other cluster.
func outboxDst(pid, i int) int {
	if i%2 == 0 {
		return pid ^ 1
	}
	return (pid&2 ^ 2) | (i / 2 & 1)
}

// delayPlan finds a seeded plan that delays, by one step, some but not
// all of processor 0's in-cluster sends — so the cluster sync keeps a
// chaos-held message among the out-of-scope ones it keeps anyway.
func delayPlan(t *testing.T) *fabric.ChaosPlan {
	for seed := int64(1); seed < 100; seed++ {
		plan := &fabric.ChaosPlan{Seed: seed, Delay: 0.3, DelaySteps: 1}
		held := 0
		for i := 0; i < outboxSends; i += 2 {
			if plan.MessageFate(0, outboxDst(0, i), i+1).Delay > 0 {
				held++
			}
		}
		if held > 0 && held < outboxSends/2 {
			return plan
		}
	}
	t.Fatal("no seed delays some but not all of p0's in-cluster sends")
	return nil
}

// TestOutboxKeepsOrderAndLetsGo: a flush keeps what it cannot send —
// out of scope, or held by chaos — in the outbox it reuses. Sends to the
// own cluster and to the other one interleave, one sync on the cluster
// and three on the root follow; on both engines every step delivers, per
// sender, strictly ascending send stamps (kept messages were not
// reordered), the cluster step delivers only its own cluster's on-time
// messages, every message arrives exactly once, and the digests agree.
// On Concurrent the outbox backing must survive the flush that empties
// it, with nothing but zero values behind its length: a reused backing
// that still held the flushed messages would pin their payloads. Before
// the outbox was filtered in place only the kept-backing assertion
// failed (each flush dropped the backing and the next Send regrew it).
func TestOutboxKeepsOrderAndLetsGo(t *testing.T) {
	tr := model.WideAreaGrid(2, 2, 4, 10, 100)
	plan := delayPlan(t)
	p := tr.NProcs()

	run := func(name string, exec func(Program) error) [][]string {
		digests := make([][]string, p)
		err := exec(func(c Ctx) error {
			pid := c.Pid()
			for i := 0; i < outboxSends; i++ {
				if err := c.Send(outboxDst(pid, i), i, []byte{byte(pid), byte(i)}); err != nil {
					return err
				}
			}
			seen := map[[2]int]bool{}
			// delivered checks the window the step-th sync opened.
			delivered := func(step int) error {
				if cc, ok := c.(*cctx); ok {
					spare := cc.outbox[len(cc.outbox):cap(cc.outbox)]
					if step > 0 && len(cc.outbox) == 0 && len(spare) < outboxSends {
						return fmt.Errorf("p%d step %d: the emptied outbox kept a backing of %d, want the %d it grew to", pid, step, len(spare), outboxSends)
					}
					for i := range spare {
						if !reflect.DeepEqual(spare[i], pendingMsg{}) {
							return fmt.Errorf("p%d step %d: outbox slot %d past its length still holds %+v", pid, step, len(cc.outbox)+i, spare[i])
						}
					}
				}
				last := map[int]int{}
				for _, m := range c.Moves() {
					if m.Payload[0] != byte(m.Src) || int(m.Payload[1]) != m.Tag || outboxDst(m.Src, m.Tag) != pid {
						return fmt.Errorf("p%d step %d: message src=%d tag=%d payload=%v is not one sent here", pid, step, m.Src, m.Tag, m.Payload)
					}
					if prev, ok := last[m.Src]; ok && m.Tag <= prev {
						return fmt.Errorf("p%d step %d: from p%d stamp %d after %d, want send order", pid, step, m.Src, m.Tag, prev)
					}
					last[m.Src] = m.Tag
					if step == 0 && (m.Src != pid^1 || plan.MessageFate(m.Src, pid, m.Tag+1).Delay > 0) {
						return fmt.Errorf("p%d: the cluster step delivered src=%d stamp %d, out of scope or held", pid, m.Src, m.Tag)
					}
					if seen[[2]int{m.Src, m.Tag}] {
						return fmt.Errorf("p%d step %d: src=%d stamp %d delivered twice", pid, step, m.Src, m.Tag)
					}
					seen[[2]int{m.Src, m.Tag}] = true
					digests[pid] = append(digests[pid], fmt.Sprintf("%d:%d:%d", step, m.Src, m.Tag))
				}
				return nil
			}
			if err := c.Sync(c.Tree().ScopeAt(c.Self(), 1), "step0"); err != nil {
				return err
			}
			if err := delivered(0); err != nil {
				return err
			}
			for step := 1; step < 4; step++ {
				if err := SyncAll(c, fmt.Sprintf("step%d", step)); err != nil {
					return err
				}
				if err := delivered(step); err != nil {
					return err
				}
			}
			// Each peer addresses this processor outboxSends/2 times in its
			// cluster and outboxSends/4 times from each of the other two.
			if want := outboxSends/2 + 2*(outboxSends/4); len(seen) != want {
				return fmt.Errorf("p%d received %d messages over the four steps, want %d", pid, len(seen), want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return digests
	}

	virt := run("Virtual", func(prog Program) error {
		_, err := runChaos(tr, fabric.PureModel(), plan, prog)
		return err
	})
	conc := run("Concurrent", func(prog Program) error {
		eng := NewConcurrent(tr)
		eng.Chaos = plan
		_, err := eng.Run(prog)
		return err
	})
	if !reflect.DeepEqual(virt, conc) {
		t.Errorf("the engines deliver differently:\nVirtual    %v\nConcurrent %v", virt, conc)
	}
	held := 0
	for _, d := range conc[1] {
		if d[0] != '0' && d[2] == '0' {
			held++
		}
	}
	if held == 0 {
		t.Errorf("no in-cluster message of p0 reached p1 after the cluster step: the plan held nothing (%v)", conc[1])
	}
}
