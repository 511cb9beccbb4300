package hbsp

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/pvm"
)

// The processor core both engines embed, driven directly: no engine, no
// barrier — just the rules proc.go owns.

func testProc(pid int, verify bool) *proc {
	p := newProc(pid, model.UCFTestbedN(3), &coreOpts{Verify: verify})
	return &p
}

func TestProcSendStampsOnlyUnderVerify(t *testing.T) {
	for _, verify := range []bool{false, true} {
		p := testProc(1, verify)
		p.vc.tick(1)
		payload := []byte("stamped")
		if err := p.Send(2, 7, payload); err != nil {
			t.Fatal(err)
		}
		if err := p.Send(3, 0, nil); err == nil {
			t.Errorf("verify=%v: send to pid 3 of 3 accepted", verify)
		}
		if len(p.outbox) != 1 {
			t.Fatalf("verify=%v: outbox holds %d messages, want 1", verify, len(p.outbox))
		}
		m := p.outbox[0]
		if m.src != 1 || m.dst != 2 || m.tag != 7 || m.seq != 1 {
			t.Errorf("verify=%v: queued %+v", verify, m)
		}
		if !verify && (m.stamp != nil || m.sum != 0) {
			t.Errorf("unverified send carries a stamp: clock %v sum %x", m.stamp, m.sum)
		}
		if verify && (!reflect.DeepEqual(m.stamp, VClock{0, 1, 0}) || m.sum != payloadSum(payload)) {
			t.Errorf("verified send stamped clock %v sum %x", m.stamp, m.sum)
		}
		p.vc.tick(1)
		if verify && m.stamp[1] != 1 {
			t.Error("the stamp aliases the live clock")
		}
	}
}

func TestProcWindowChecks(t *testing.T) {
	root := func(p *proc) *model.Machine { return p.tree.Root }
	payload := func() []byte { return []byte("delivered") }
	sound := func(p *proc) msgMeta {
		return msgMeta{src: 2, tag: 4, stamp: p.vc.clone(), sum: payloadSum(payload())}
	}
	cases := []struct {
		name   string
		verify bool
		// deliver stages one message into p's window; check is the rule
		// under test.
		deliver func(p *proc)
		check   func(p *proc) error
		reason  string // "" = must pass
	}{
		{"closing recheck passes an untouched window", true,
			func(p *proc) { p.receive(Message{Src: 2, Tag: 4, Payload: payload()}, sound(p)) },
			func(p *proc) error { return p.enter(root(p)) }, ""},
		{"closing recheck catches a mutated delivered payload", true,
			func(p *proc) {
				b := payload()
				p.receive(Message{Src: 2, Tag: 4, Payload: b}, sound(p))
				b[0] ^= 0xFF
			},
			func(p *proc) error { return p.enter(root(p)) }, "mutated during the superstep"},
		{"no recheck without Verify", false,
			func(p *proc) {
				b := payload()
				p.receive(Message{Src: 2, Tag: 4, Payload: b}, msgMeta{})
				b[0] ^= 0xFF
			},
			func(p *proc) error { return p.enter(root(p)) }, ""},
		{"opening check passes a dominated stamp", true,
			func(p *proc) { p.receive(Message{Src: 2, Tag: 4, Payload: payload()}, sound(p)) },
			(*proc).openWindow, ""},
		{"opening check flags a stamp the reader's clock does not dominate", true,
			func(p *proc) {
				meta := sound(p)
				meta.stamp = VClock{0, 0, 5}
				p.receive(Message{Src: 2, Tag: 4, Payload: payload()}, meta)
			},
			(*proc).openWindow, "without a barrier edge"},
		{"opening check flags a payload that changed since Send", true,
			func(p *proc) {
				meta := sound(p)
				meta.sum++
				p.receive(Message{Src: 2, Tag: 4, Payload: payload()}, meta)
			},
			(*proc).openWindow, "between Send and delivery"},
	}
	for _, tc := range cases {
		p := testProc(0, tc.verify)
		tc.deliver(p)
		err := tc.check(p)
		var nd *ErrNondeterminism
		switch {
		case tc.reason == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.reason != "" && !errors.As(err, &nd):
			t.Errorf("%s: got %v, want *ErrNondeterminism", tc.name, err)
		case tc.reason != "" && (!strings.Contains(nd.Reason, tc.reason) || nd.Pid != 0 || nd.Src != 2 || nd.Tag != 4):
			t.Errorf("%s: got %+v, want reason containing %q for buffer src=2 tag=4 at p0", tc.name, nd, tc.reason)
		}
	}
}

func TestProcEnterRejectsBeforeAnyStateChanges(t *testing.T) {
	tr := model.Figure1Cluster()
	p := newProc(0, tr, &coreOpts{})
	if err := p.enter(nil); err == nil || !strings.Contains(err.Error(), "nil scope") {
		t.Errorf("nil scope: %v", err)
	}
	for m := p.leaf; m != nil; m = m.Parent() {
		if err := p.enter(m); err != nil {
			t.Errorf("ancestor %s rejected: %v", m.Label(), err)
		}
	}
	tr.Root.Walk(func(m *model.Machine) {
		if under(m, p.leaf) {
			return
		}
		if err := p.enter(m); err == nil || !strings.Contains(err.Error(), "foreign scope "+m.Label()) {
			t.Errorf("foreign scope %s: %v", m.Label(), err)
		}
	})
}

// codecMsg is the message the codec tests pack: every field non-zero.
func codecMsg() pendingMsg {
	payload := []byte("the payload")
	return pendingMsg{src: 2, tag: -1001, payload: payload, sum: payloadSum(payload), stamp: VClock{3, 0, 9}}
}

// codecFields packs the first n fields of codecMsg's frame by value, in
// wire order: source, tag, under Verify checksum and clock, and the
// payload last.
func codecFields(b *pvm.Buffer, n int, verify bool) *pvm.Buffer {
	m := codecMsg()
	packs := []func(){
		func() { b.PackInt32(int32(m.src)) },
		func() { b.PackInt32(int32(m.tag)) },
	}
	if verify {
		packs = append(packs,
			func() { b.PackInt64(int64(m.sum)) },
			func() { b.PackInt64Slice(m.stamp.encodeInt64()) })
	}
	packs = append(packs, func() { b.PackBytes(m.payload) })
	for _, pack := range packs[:n] {
		pack()
	}
	return b
}

func TestCodecRoundTripAndEveryTruncation(t *testing.T) {
	for _, verify := range []bool{false, true} {
		sent := codecMsg()
		whole := 3
		if verify {
			whole = 5
		}
		// The payload is borrowed: the buffer's head ends at its length
		// prefix, and head ‖ tail is the frame packed by value.
		head := len(codecFields(pvm.Wrap(nil), whole-1, verify).Bytes()) + 1 + 4
		packed := packMsg(&sent, verify)
		if packed.Len() != head+len(sent.payload) {
			t.Errorf("verify=%v: packed length %d, want a %d-byte head and the payload", verify, packed.Len(), head)
		}
		wire := packed.Bytes()
		if want := codecFields(pvm.Wrap(nil), whole, verify).Bytes(); !bytes.Equal(wire, want) {
			t.Fatalf("verify=%v: frame\n%x\nwant the payload-last order\n%x", verify, wire, want)
		}
		if !bytes.Equal(wire[head:], sent.payload) {
			t.Errorf("verify=%v: the frame does not end on the payload", verify)
		}
		m, meta, err := unpackMsg(pvm.Wrap(wire), verify)
		if err != nil {
			t.Fatalf("verify=%v: %v", verify, err)
		}
		if m.Src != sent.src || m.Tag != sent.tag || !bytes.Equal(m.Payload, sent.payload) {
			t.Errorf("verify=%v: decoded %+v", verify, m)
		}
		wantMeta := msgMeta{}
		if verify {
			wantMeta = msgMeta{src: sent.src, tag: sent.tag, stamp: sent.stamp, sum: sent.sum}
		}
		if !reflect.DeepEqual(meta, wantMeta) {
			t.Errorf("verify=%v: decoded record %+v, want %+v", verify, meta, wantMeta)
		}
		for n := 0; n < len(wire); n++ {
			if _, _, err := unpackMsg(pvm.Wrap(wire[:n]), verify); err == nil {
				t.Errorf("verify=%v: frame cut to %d of %d bytes decoded without error", verify, n, len(wire))
			}
		}
	}
	// A frame packed without the Verify fields is malformed to a verifying
	// reader, whatever the payload.
	sent := codecMsg()
	if _, _, err := unpackMsg(pvm.Wrap(packMsg(&sent, false).Bytes()), true); err == nil {
		t.Error("verifying reader accepted a frame without checksum and clock")
	}
}

// released reports whether the pooled message's wire has gone back to
// the arena: a second release of it is the over-release the pool panics
// on. Only sound while nothing else draws from the pool.
func released(m pvm.Message) (yes bool) {
	defer func() { yes = recover() != nil }()
	m.Release()
	return false
}

// A malformed message aborts the window's decode with the window holding
// what decoded before it, and every wire of the aborted window — the bad
// one's and those behind it too — still goes back to the arena when the
// run ends.
func TestUnpackWindowReleasesTheRestOnError(t *testing.T) {
	good := codecMsg()
	for _, verify := range []bool{false, true} {
		whole := 3
		if verify {
			whole = 5
		}
		for cut := 0; cut < whole; cut++ {
			sys := pvm.NewSystem()
			sys.Spawn("reader", func(task *pvm.Task) error {
				window := []*pvm.Buffer{packMsg(&good, verify), codecFields(pvm.NewBuffer(), cut, verify), packMsg(&good, verify)}
				if err := task.SendBatch(task.TID(), 1, window); err != nil {
					return err
				}
				msgs := task.TryRecvAll(pvm.AnySource, 1)
				if len(msgs) != len(window) {
					t.Errorf("drained %d of %d messages", len(msgs), len(window))
				}
				p := testProc(0, verify)
				p.wires = slices.Clone(msgs)
				if err := p.unpackWindow(); err == nil {
					t.Errorf("verify=%v: window with a frame cut to %d fields decoded without error", verify, cut)
				}
				if len(p.inbox) != 1 || verify != (len(p.inmeta) == 1) {
					t.Errorf("verify=%v cut=%d: window holds %d messages and %d records, want the one before the bad frame",
						verify, cut, len(p.inbox), len(p.inmeta))
				}
				p.dropWindows()
				for i, m := range msgs {
					if !released(m) {
						t.Errorf("verify=%v cut=%d: message %d of the aborted window was not released", verify, cut, i)
					}
				}
				return nil
			})
			if err := sys.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzUnpackMsg feeds the engine message decoder arbitrary bytes — on
// the wire transports these arrive from a socket. It must never panic,
// and whatever it accepts must re-encode to a frame that decodes to the
// same message.
func FuzzUnpackMsg(f *testing.F) {
	sent := codecMsg()
	for _, verify := range []bool{false, true} {
		wire := packMsg(&sent, verify).Bytes()
		f.Add(wire, verify)
		f.Add(wire[:len(wire)/2], verify)
		// Cut at the seam: the head alone, as a transport is handed it.
		f.Add(wire[:len(wire)-len(sent.payload)], verify)
	}
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, verify bool) {
		m, meta, err := unpackMsg(pvm.Wrap(data), verify)
		if err != nil {
			return
		}
		again := pendingMsg{src: m.Src, tag: m.Tag, payload: m.Payload, sum: meta.sum, stamp: meta.stamp}
		m2, meta2, err := unpackMsg(pvm.Wrap(packMsg(&again, verify).Bytes()), verify)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if m2.Src != m.Src || m2.Tag != m.Tag || !bytes.Equal(m2.Payload, m.Payload) ||
			meta2.sum != meta.sum || !reflect.DeepEqual(meta2.stamp, meta.stamp) {
			t.Fatalf("round trip changed the message: %+v %+v vs %+v %+v", m, meta, m2, meta2)
		}
	})
}

// A straggler burst is one chaos event per affected (pid, ordinal) on
// both engines — emitted by the shared observe step, on the success path
// only — and a run without a recorder takes the same path.
func TestChaosStragglerEventOncePerBurstStep(t *testing.T) {
	plan := &fabric.ChaosPlan{Stragglers: []fabric.Straggler{
		{Pid: 1, FromStep: 1, ToStep: 2, Factor: 3},
		{Pid: 3, FromStep: 2, ToStep: 2, Factor: 2},
		{Pid: 3, FromStep: 2, ToStep: 2, Factor: 4}, // overlapping bursts are still one event
	}}
	type at struct{ pid, step int32 }
	want := map[at]int{{1, 1}: 1, {1, 2}: 1, {3, 2}: 1}
	prog := crashProg(4, 1)
	tr := model.UCFTestbedN(4)
	run := map[string]func(rec *obsv.Recorder) error{
		"virtual": func(rec *obsv.Recorder) error {
			eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
			eng.Chaos, eng.Obsv = plan, rec
			_, err := eng.Run(prog)
			return err
		},
		"concurrent": func(rec *obsv.Recorder) error {
			eng := NewConcurrent(tr)
			eng.Chaos, eng.Obsv = plan, rec
			_, err := eng.Run(prog)
			return err
		},
	}
	for name, engine := range run {
		if err := engine(nil); err != nil {
			t.Errorf("%s without a recorder: %v", name, err)
		}
		rec := obsv.New(obsv.Config{})
		if err := engine(rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[at]int{}
		for _, e := range rec.Events() {
			if e.Kind == obsv.KindChaos && e.Name == "straggler" {
				got[at{e.Pid, e.Step}]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: straggler events per (pid, step) = %v, want %v", name, got, want)
		}
	}
}
