package hbsp

import "fmt"

// Semantic verification (DESIGN.md §5.3): both engines can stamp every
// message with the sender's vector clock and a payload checksum, join
// clocks at every barrier, and check at delivery that
//
//   - the read is ordered after the send by a chain of barrier edges
//     (the happens-before rule: communicated data is only legal to read
//     after the synchronization barrier), and
//   - the payload bytes are exactly what the sender queued (engines may
//     share the sender's bytes, so a sender mutating a buffer after
//     Send races every reader).
//
// Violations surface as a typed *ErrNondeterminism naming the reading
// processor, its superstep, and the buffer's (src, tag) identity. The
// stamping cost is accounted as zero in the cost model: verification is
// a debugging harness, not a protocol the paper's T_i(λ) charges for.

// VClock is a fixed-width vector clock, one component per processor.
type VClock []uint64

// newVClock returns the zero clock for p processors.
func newVClock(p int) VClock { return make(VClock, p) }

// clone returns an independent copy (nil stays nil).
func (v VClock) clone() VClock {
	if v == nil {
		return nil
	}
	return append(VClock(nil), v...)
}

// join folds o into v component-wise (v = max(v, o)).
func (v VClock) join(o VClock) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// tick advances the processor's own component.
func (v VClock) tick(pid int) {
	if pid >= 0 && pid < len(v) {
		v[pid]++
	}
}

// dominates reports v >= o component-wise: every event o has seen, v
// has seen too — the happens-before edge exists.
func (v VClock) dominates(o VClock) bool {
	for i := range o {
		if o[i] > 0 && (i >= len(v) || v[i] < o[i]) {
			return false
		}
	}
	return true
}

// encodeInt64 renders the clock as an []int64 for the pvm wire format.
func (v VClock) encodeInt64() []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

// decodeVClock is the inverse of encodeInt64.
func decodeVClock(raw []int64) VClock {
	out := make(VClock, len(raw))
	for i, x := range raw {
		out[i] = uint64(x)
	}
	return out
}

// ErrNondeterminism reports a read whose outcome depends on message
// timing: Pid is the reading processor, Step its superstep (sync
// ordinal) at the read, and Src/Tag identify the buffer. Detect it with
// errors.As:
//
//	var nd *hbsp.ErrNondeterminism
//	if errors.As(err, &nd) { ... nd.Pid, nd.Src ... }
type ErrNondeterminism struct {
	Pid  int
	Step int
	Src  int
	Tag  int
	// Reason says which discipline broke: a missing barrier edge, or a
	// payload that changed between Send and the reader's window.
	Reason string
}

func (e *ErrNondeterminism) Error() string {
	return fmt.Sprintf("hbsp: nondeterminism at p%d superstep %d (buffer src=%d tag=%d): %s",
		e.Pid, e.Step, e.Src, e.Tag, e.Reason)
}

// payloadSum is FNV-1a over the payload: cheap, allocation-free, and
// stable across engines, so both stamp the same checksum for the same
// bytes.
func payloadSum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// msgMeta is the verification record delivered alongside one message.
type msgMeta struct {
	src, tag int
	stamp    VClock
	sum      uint64
}

// checkDelivery validates one delivered message against the reader's
// clock: the send must happen-before the read, and the payload must
// still hash to the sender's stamp.
func checkDelivery(pid, step int, m Message, meta msgMeta, reader VClock) *ErrNondeterminism {
	if meta.stamp != nil && !reader.dominates(meta.stamp) {
		return &ErrNondeterminism{Pid: pid, Step: step, Src: meta.src, Tag: meta.tag,
			Reason: "message delivered without a barrier edge from its send"}
	}
	if got := payloadSum(m.Payload); got != meta.sum {
		return &ErrNondeterminism{Pid: pid, Step: step, Src: meta.src, Tag: meta.tag,
			Reason: "payload mutated between Send and delivery"}
	}
	return nil
}

// Poison is what Concurrent under Verify overwrites delivered bytes with
// as it recycles them, two successful Syncs after the one that delivered
// them (Ctx.Moves): a payload read past that rule reads as a run of
// Poison, on every run.
const Poison byte = 0xDB

func poison(p []byte) {
	for i := range p {
		p[i] = Poison
	}
}

// recheckWindow re-hashes a superstep's inbox at its closing barrier:
// a mismatch means someone rewrote a delivered payload while the
// reader's superstep was still entitled to read it.
func recheckWindow(pid, step int, inbox []Message, metas []msgMeta) *ErrNondeterminism {
	for i, m := range inbox {
		if i >= len(metas) {
			break
		}
		if payloadSum(m.Payload) != metas[i].sum {
			return &ErrNondeterminism{Pid: pid, Step: step, Src: metas[i].src, Tag: metas[i].tag,
				Reason: "payload mutated during the superstep that was reading it"}
		}
	}
	return nil
}
