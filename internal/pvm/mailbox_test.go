package pvm

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// arrival is the reference mailbox's record of one message: the order of
// the slice is the order of arrival.
type arrival struct {
	src TID
	tag int
	id  uint64
}

func matches(a arrival, src TID, tag int) bool {
	return (src == AnySource || a.src == src) && (tag == AnyTag || a.tag == tag)
}

// takeAll is the reference AppendRecvAll: filter the arrival sequence.
func takeAll(box []arrival, src TID, tag int) (got, rest []arrival) {
	for _, a := range box {
		if matches(a, src, tag) {
			got = append(got, a)
		} else {
			rest = append(rest, a)
		}
	}
	return got, rest
}

// queued counts what tk's mailbox holds: indexed, set aside by the last
// drain, and staged.
func queued(tk *Task) int {
	tk.recvMu.Lock()
	defer tk.recvMu.Unlock()
	n := len(tk.passed)
	for _, q := range tk.queues {
		n += q.len()
	}
	tk.sendMu.Lock()
	n += len(tk.staged)
	tk.sendMu.Unlock()
	return n
}

// AppendRecvAll against the reference, under the traffic the HBSP engine
// makes and then some: tags that interleave (superstep g+1 staged before
// g is drained), wildcard drains by tag and by source, exact-match
// receives in between that force part of the mailbox into the index, and
// a second drain that finds nothing new. Same messages, same order,
// nothing lost — and what a drain handed out is nowhere in the mailbox
// afterwards: not in the index, not in the staging slice, not among what
// the drain set aside.
func TestAppendRecvAllMatchesArrivalFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(20260121))
	for trial := 0; trial < 200; trial++ {
		s := NewSystem()
		parked := make(chan *Task, 1)
		done := make(chan struct{})
		s.Spawn("mailbox", func(tk *Task) error { parked <- tk; <-done; return nil })
		tk := <-parked
		var box []arrival
		var next, sinceDrain uint64 // the next id, and next as of the last drain
		ids := func(ms []Message) []uint64 {
			out := make([]uint64, len(ms))
			for i, m := range ms {
				out[i] = binary.BigEndian.Uint64(m.buf)
			}
			return out
		}
		want := func(as []arrival) []uint64 {
			out := make([]uint64, len(as))
			for i, a := range as {
				out[i] = a.id
			}
			return out
		}
		var scratch []Message
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // a burst from one sender, tags of two or three supersteps
				src := TID(10 + rng.Intn(3))
				for n := 1 + rng.Intn(4); n > 0; n-- {
					a := arrival{src: src, tag: rng.Intn(3), id: next}
					next++
					if err := injectCopy(s, a.src, tk.TID(), a.tag, binary.BigEndian.AppendUint64(nil, a.id)); err != nil {
						t.Fatal(err)
					}
					box = append(box, a)
				}
			case k < 8: // the engine's drain, sometimes by source, sometimes exact, sometimes twice
				src, tag := AnySource, rng.Intn(3)
				switch rng.Intn(4) {
				case 0:
					src, tag = TID(10+rng.Intn(3)), AnyTag
				case 1:
					src = TID(10 + rng.Intn(3))
				}
				for again := rng.Intn(2); again >= 0; again-- {
					var exp []arrival
					exp, box = takeAll(box, src, tag)
					scratch = tk.AppendRecvAll(scratch[:0], src, tag)
					if got := ids(scratch); !slices.Equal(got, want(exp)) {
						t.Fatalf("trial %d op %d: AppendRecvAll(%d, %d) = %v, want %v", trial, op, src, tag, got, want(exp))
					}
				}
				indexed := 0
				for k, q := range tk.queues {
					if matches(arrival{src: k.src, tag: k.tag}, src, tag) {
						t.Fatalf("trial %d op %d: queue %v still indexed after AppendRecvAll(%d, %d)", trial, op, k, src, tag)
					}
					indexed += q.len()
				}
				// Set aside is only what arrived since the drain before this
				// one: a message is walked past once, then filed.
				for _, m := range tk.passed {
					id := binary.BigEndian.Uint64(m.buf)
					if matches(arrival{src: m.Src, tag: m.Tag}, src, tag) || id < sinceDrain {
						t.Fatalf("trial %d op %d: message %d (%d, %d) set aside by AppendRecvAll(%d, %d)", trial, op, id, m.Src, m.Tag, src, tag)
					}
				}
				sinceDrain = next
				if indexed+len(tk.passed) != len(box) || len(tk.staged) != 0 {
					t.Fatalf("trial %d op %d: %d indexed, %d set aside, %d staged, want the %d unmatched kept", trial, op, indexed, len(tk.passed), len(tk.staged), len(box))
				}
			default: // an exact-match receive of something that is there
				if len(box) == 0 {
					continue
				}
				pick := box[rng.Intn(len(box))]
				at := slices.IndexFunc(box, func(a arrival) bool { return matches(a, pick.src, pick.tag) })
				m, err := tk.RecvTimeout(pick.src, pick.tag, 0)
				if err != nil || binary.BigEndian.Uint64(m.buf) != box[at].id {
					t.Fatalf("trial %d op %d: RecvTimeout(%d, %d, 0) = %v %v, want id %d", trial, op, pick.src, pick.tag, ids([]Message{m}), err, box[at].id)
				}
				box = slices.Delete(box, at, at+1)
			}
			if got := queued(tk); got != len(box) {
				t.Fatalf("trial %d op %d: %d messages queued, want %d", trial, op, got, len(box))
			}
		}
		scratch = tk.AppendRecvAll(scratch[:0], AnySource, AnyTag)
		if got := ids(scratch); !slices.Equal(got, want(box)) {
			t.Fatalf("trial %d: the last drain = %v, want %v", trial, got, want(box))
		}
		if len(tk.queues) != 0 || len(tk.passed) != 0 {
			t.Fatalf("trial %d: %d queues, %d set aside in an empty mailbox", trial, len(tk.queues), len(tk.passed))
		}
		close(done)
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
