// Package bufreuse is bufown's second golden fixture, the use-after-send
// half of ownership: stub pvm Buffer/Task types and an HBSPlib Ctx, with
// seeded send-then-pack, resend and send-then-mutate hazards.
package bufreuse

type TID int

type Buffer struct{ data []byte }

func NewBuffer() *Buffer { return &Buffer{} }

func (b *Buffer) PackInt32(vs ...int32) *Buffer { return b }
func (b *Buffer) PackBytes(p []byte) *Buffer    { return b }

type Task struct{}

type Batch struct {
	Dst  TID
	Bufs []*Buffer
}

func (t *Task) Send(dst TID, tag int, buf *Buffer) error         { return nil }
func (t *Task) SendBatch(dst TID, tag int, bufs []*Buffer) error { return nil }
func (t *Task) SendBatches(tag int, batches []Batch) error       { return nil }
func (t *Task) Barrier(name string, count int) error             { return nil }
func (t *Task) Recv(src TID, tag int) (struct{ Src TID }, error) { return struct{ Src TID }{}, nil }

type Machine struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

// --- violations ---

func packAfterSend(t *Task) error {
	buf := NewBuffer()
	buf.PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	buf.PackInt32(2)         // want `PackInt32 into buffer "buf" already sent`
	return t.Send(2, 7, buf) // want `buffer "buf" sent again`
}

func packAfterSendBatches(t *Task, d TID) error {
	buf := NewBuffer().PackBytes([]byte("hello"))
	if err := t.SendBatches(3, []Batch{{Dst: d, Bufs: []*Buffer{buf}}}); err != nil {
		return err
	}
	buf.PackBytes([]byte("tail")) // want `PackBytes into buffer "buf" already sent`
	return nil
}

// SendBatches transfers every buffer of every batch, keyed or positional.
func resendAfterSendBatches(t *Task, d, e TID) error {
	a := NewBuffer().PackInt32(1)
	b := NewBuffer().PackInt32(2)
	if err := t.SendBatches(7, []Batch{{d, []*Buffer{a}}, {Dst: e, Bufs: []*Buffer{b}}}); err != nil {
		return err
	}
	return t.Send(d, 7, b) // want `buffer "b" sent again`
}

func resendAfterSendBatch(t *Task, d TID) error {
	a := NewBuffer().PackInt32(1)
	if err := t.SendBatch(d, 7, []*Buffer{a}); err != nil {
		return err
	}
	return t.Send(d, 7, a) // want `buffer "a" sent again`
}

func resendWithoutPacking(t *Task) error {
	buf := NewBuffer().PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	return t.Send(2, 7, buf) // want `buffer "buf" sent again`
}

func mutatePayloadAfterSend(c Ctx, scope *Machine) error {
	payload := []byte("abc")
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload[0] = 'z' // want `store into "payload" already sent`
	return c.Sync(scope, "step")
}

func appendPayloadAfterSend(c Ctx) error {
	payload := make([]byte, 0, 16)
	payload = append(payload, 1, 2, 3)
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload = append(payload, 4) // want `append into payload "payload" already queued by Send`
	return nil
}

func copyIntoSentPayload(c Ctx, fresh []byte) error {
	payload := make([]byte, 8)
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	copy(payload, fresh) // want `copy into payload "payload" already queued by Send`
	return nil
}

func sliceOfSentPayload(c Ctx) error {
	payload := make([]byte, 8)
	if err := c.Send(1, 0, payload[:4]); err != nil {
		return err
	}
	payload[5] = 1 // want `store into "payload" already sent`
	return nil
}

// --- safe patterns ---

func freshBufferPerMessage(t *Task) error {
	for dst := TID(0); dst < 4; dst++ {
		buf := NewBuffer()
		buf.PackInt32(int32(dst))
		if err := t.Send(dst, 7, buf); err != nil {
			return err
		}
	}
	return nil
}

// A batch list built beforehand is an ordinary value: its buffers left
// the analysis where the list was built.
func batchesBuiltAhead(t *Task, d TID) error {
	batches := []Batch{{Dst: d, Bufs: []*Buffer{NewBuffer().PackInt32(1)}}}
	return t.SendBatches(7, batches)
}

func rebindResets(t *Task) error {
	buf := NewBuffer().PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	buf = NewBuffer()
	buf.PackInt32(2)
	return t.Send(2, 7, buf)
}

func freshPayloadAfterSend(c Ctx) error {
	payload := []byte("abc")
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload = []byte("new backing array")
	payload[0] = 'z'
	return nil
}

type Message struct{ Src TID }

func (m Message) Release() {}

// A deferred send runs after the body: packing below the defer happens
// before the buffer is handed to the fabric, so nothing is reused.
func deferredSendThenPack(t *Task, dst TID) {
	buf := NewBuffer()
	defer t.Send(dst, 1, buf)
	buf.PackInt32(42)
}

// defer msg.Release() is cleanup, not reuse.
func deferReleaseIsCleanup(t *Task, m Message, dst TID) error {
	defer m.Release()
	buf := NewBuffer().PackInt32(9)
	return t.Send(dst, 2, buf)
}

// Two deferred sends of one buffer still resend it — the LIFO replay
// orders the later defer first, and the earlier one doubles the send.
func deferredDoubleSend(t *Task, dst TID) {
	buf := NewBuffer().PackInt32(1)
	defer t.Send(dst, 1, buf) // want `buffer "buf" sent again`
	defer t.Send(dst, 2, buf)
}

// --- shapes the source-ordered check this fixture was written for missed ---

// The result of the append may share the sent backing array: assigning
// it back is not a rebind to fresh bytes, so the store after it is still
// a write under the receiver.
func appendKeepsAliasing(c Ctx) error {
	payload := make([]byte, 0, 16)
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload = append(payload, 4) // want `append into payload "payload" already queued by Send`
	payload[0] = 9               // want `store into "payload" already sent`
	return nil
}

// Sent on one path only, written on all of them: a bug on the path that
// sent. The payload outlives the block it was first sent in.
func sentInBranch(c Ctx, root int) error {
	payload := []byte("abc")
	if c.Pid() == root {
		if err := c.Send(1, 0, payload); err != nil {
			return err
		}
	}
	payload[0] = 'z' // want `store into "payload" already sent`
	return nil
}

// A send whose error goes down a channel is still a send.
func resendThroughChannel(t *Task, errs chan error) {
	buf := NewBuffer().PackInt32(7)
	if err := t.Send(1, 1, buf); err != nil {
		errs <- err
		return
	}
	errs <- t.Send(1, 1, buf) // want `buffer "buf" sent again`
}

// A buffer that did not come from NewBuffer here is tracked from its
// first send.
func resendParameter(t *Task, buf *Buffer) error {
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	return t.Send(2, 7, buf) // want `buffer "buf" sent again`
}

func observe([]byte) {}

// Handing a queued payload to a callee does not end the hazard: nothing
// the callee does makes the store safe.
func observedThenMutated(c Ctx) error {
	payload := []byte("abc")
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	observe(payload)
	payload[0] = 'z' // want `store into "payload" already sent`
	return nil
}
