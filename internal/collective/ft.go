package collective

import (
	"bytes"
	"errors"
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Fault-tolerant collectives: the degraded-mode versions of gather,
// broadcast and reduce. On a member's crash the operation's scope
// shrinks — survivors re-elect the coordinator (the fastest *live*
// machine, the same fastest-in-subtree rule as Coordinator), and the
// operation reruns over the survivor set until it completes correctly
// or the data is provably lost.
//
// The protocol leans on the engines' consistency invariant: every live
// member of a scope observes a member's death as ErrPeerFailed at the
// same per-scope sync generation. That makes "a crash happened, restart
// the epoch" a decision all survivors reach together, with no extra
// agreement rounds. Message loss, by contrast, is only visible at the
// receiver, so each epoch runs a FIXED number of rounds and ends with a
// verdict round: the live coordinator broadcasts success/failure
// (redundantly, several copies per member) and everyone retries or
// returns together. A processor that loses every copy of the verdict
// cannot tell which way the epoch went; it returns a local, terminal
// error wrapping hbsp.ErrTimeout rather than guessing — the one outcome
// that is not survivor-consistent, and the price of message loss
// without acknowledgments.
//
// Every message is tagged with (operation, session call count, epoch),
// so deliveries delayed across an epoch restart — or across operations
// — are discarded instead of corrupting a later result.

// ErrLost reports that a fault-tolerant operation's data died with its
// holders: the broadcast source crashed before any survivor received a
// copy. This verdict is coordinator-issued, so all survivors observe it
// together.
var ErrLost = errors.New("collective: data lost with its failed holders")

// verdict values of the epoch-ending round.
const (
	verdictFail = iota // epoch incomplete (message loss): retry
	verdictOK          // epoch complete: return
	verdictLost        // source data unrecoverable: ErrLost
)

// verdictCopies is the redundancy of the verdict round: a verdict
// survives unless every copy is dropped.
const verdictCopies = 4

// ft op ids for tag scoping.
const (
	ftOpData = iota
	ftOpStatus
	ftOpVerdict
)

// ftTag scopes a message to (op, session call, epoch attempt) so stale
// deliveries from aborted epochs or earlier operations are filtered.
// Attempts and calls wrap in 12 bits, far beyond any real run.
func ftTag(op, call, attempt int) int {
	return 1<<30 | op<<24 | (call&0xFFF)<<12 | attempt&0xFFF
}

// maxEpochs bounds retries: one epoch per possible crash plus headroom
// for message-loss rounds. Deterministically identical on every member.
func maxEpochs(members int) int { return members + 8 }

// FT is one processor's handle on a sequence of fault-tolerant
// collectives over a fixed scope. All members of the scope must create
// their session at the same point of the program and issue the same
// operations in the same order (the SPMD discipline the plain
// collectives already require); the session counts calls to keep every
// operation's messages tagged apart.
type FT struct {
	c     hbsp.Ctx
	scope *model.Machine
	calls int
}

// NewFT opens a fault-tolerant collective session over the scope.
func NewFT(c hbsp.Ctx, scope *model.Machine) *FT {
	return &FT{c: c, scope: scope}
}

// Live returns the scope members this processor knows to be alive, in
// pid order: the scope's leaves intersected with the active-membership
// view (Ctx.Members — a dormant leaf awaiting its join cut is not yet a
// participant) minus the failed set. After any fault-tolerant operation
// returns — normally or with a survivor-consistent error — all live
// members agree on it.
func (f *FT) Live() []int {
	dead := make(map[int]bool)
	for _, pid := range f.c.Failed() {
		dead[pid] = true
	}
	active := make(map[int]bool)
	for _, pid := range f.c.Members() {
		active[pid] = true
	}
	var out []int
	for _, pid := range f.scope.Pids() {
		if active[pid] && !dead[pid] {
			out = append(out, pid)
		}
	}
	return out
}

// Coordinator returns the pid of the scope's live coordinator: the
// fastest machine among the survivors, re-elected by the same
// fastest-in-subtree rule that picks the failure-free coordinator.
func (f *FT) Coordinator() int {
	dead := make(map[int]bool)
	for _, pid := range f.c.Failed() {
		dead[pid] = true
	}
	active := make(map[int]bool)
	for _, pid := range f.c.Members() {
		active[pid] = true
	}
	m := f.scope.CoordinatorAmong(func(l *model.Machine) bool {
		pid := f.c.Tree().Pid(l)
		return active[pid] && !dead[pid]
	})
	if m == nil {
		return -1
	}
	return f.c.Tree().Pid(m)
}

// LiveShares returns the balanced-workload fractions c_{i,j}
// renormalized over the scope's survivors: each live member's share
// divided by the live total, so shares again sum to 1 and degraded-mode
// work partitioning stays balanced.
func LiveShares(c hbsp.Ctx, scope *model.Machine, live []int) map[int]float64 {
	alive := make(map[int]bool, len(live))
	for _, pid := range live {
		alive[pid] = true
	}
	total := 0.0
	for _, l := range scope.Leaves() {
		if alive[c.Tree().Pid(l)] {
			total += l.Share
		}
	}
	out := make(map[int]float64, len(live))
	if total <= 0 {
		return out
	}
	for _, l := range scope.Leaves() {
		if pid := c.Tree().Pid(l); alive[pid] {
			out[pid] = l.Share / total
		}
	}
	return out
}

// sync runs one round's barrier. retry=true means a member died and
// every survivor is restarting the epoch together (the engines deliver
// ErrPeerFailed to all live members at the same generation); a non-nil
// err with retry=false is fatal to the operation.
func (f *FT) sync(label string) (retry bool, err error) {
	err = f.c.Sync(f.scope, label)
	var pf *hbsp.ErrPeerFailed
	if errors.As(err, &pf) {
		return true, nil
	}
	// A join notice restarts the epoch the same way a failure does:
	// every old member observes ErrPeerJoined at the same generation and
	// retries together. (The newcomer itself cannot enter a session
	// mid-flight — FT message tags are session-call counters — so
	// join-heavy programs open fresh sessions after a membership cut.)
	var pj *hbsp.ErrPeerJoined
	if errors.As(err, &pj) {
		return true, nil
	}
	return false, err
}

// moves returns the payloads delivered with the given tag, keyed by
// source, first copy winning (chaos may duplicate messages). They alias
// the delivery window: Gather and Bcast copy what they keep, Reduce
// folds them before the next Sync.
func (f *FT) moves(tag int) map[int][]byte {
	out := make(map[int][]byte)
	for _, m := range f.c.Moves() {
		if m.Tag != tag {
			continue
		}
		if _, dup := out[m.Src]; !dup {
			out[m.Src] = m.Payload
		}
	}
	return out
}

// sendVerdict floods the verdict to every live member but the
// coordinator, verdictCopies times each.
func (f *FT) sendVerdict(tag int, live []int, v byte) error {
	for _, pid := range live {
		if pid == f.c.Pid() {
			continue
		}
		for i := 0; i < verdictCopies; i++ {
			if err := f.c.Send(pid, tag, []byte{v}); err != nil {
				return err
			}
		}
	}
	return nil
}

// readVerdict extracts the coordinator's verdict, or returns the
// terminal verdict-lost error when every copy was dropped.
func (f *FT) readVerdict(tag, coord int) (byte, error) {
	for _, m := range f.c.Moves() {
		if m.Tag == tag && m.Src == coord && len(m.Payload) == 1 {
			return m.Payload[0], nil
		}
	}
	return 0, fmt.Errorf("collective: p%d lost every verdict copy from p%d: %w",
		f.c.Pid(), coord, hbsp.ErrTimeout)
}

// Gather collects every live member's bytes at the live coordinator.
// Each epoch is two rounds: data to the coordinator, then the verdict.
// The coordinator returns the pieces keyed by origin pid; everyone
// returns the coordinator's pid. A member that died after an epoch
// completed may still be represented in an earlier successful result —
// the guarantee is that every returned map holds a correct piece from
// every member live at return time, never corrupted or partial data.
func (f *FT) Gather(local []byte) (map[int][]byte, int, error) {
	defer hbsp.Span(f.c, "ft-gather")(len(local))
	call := f.calls
	f.calls++
	limit := maxEpochs(len(f.scope.Leaves()))
	for attempt := 0; attempt < limit; attempt++ {
		live := f.Live()
		root := f.Coordinator()
		dataTag := ftTag(ftOpData, call, attempt)
		verdictTag := ftTag(ftOpVerdict, call, attempt)

		if f.c.Pid() != root {
			if err := f.c.Send(root, dataTag, local); err != nil {
				return nil, -1, err
			}
		}
		if retry, err := f.sync("ft-gather data"); err != nil {
			return nil, -1, err
		} else if retry {
			continue
		}

		var pieces map[int][]byte
		if f.c.Pid() == root {
			pieces = f.moves(dataTag)
			for pid, p := range pieces {
				pieces[pid] = bytes.Clone(p)
			}
			pieces[root] = local
			v := byte(verdictOK)
			for _, pid := range live {
				if _, got := pieces[pid]; !got {
					v = verdictFail
					break
				}
			}
			if err := f.sendVerdict(verdictTag, live, v); err != nil {
				return nil, -1, err
			}
			if retry, err := f.sync("ft-gather verdict"); err != nil {
				return nil, -1, err
			} else if retry {
				continue
			}
			if v == verdictOK {
				return pieces, root, nil
			}
			continue
		}
		if retry, err := f.sync("ft-gather verdict"); err != nil {
			return nil, -1, err
		} else if retry {
			continue
		}
		v, err := f.readVerdict(verdictTag, root)
		if err != nil {
			return nil, -1, err
		}
		if v == verdictOK {
			return nil, root, nil
		}
	}
	return nil, -1, fmt.Errorf("collective: ft-gather gave up after %d epochs", limit)
}

// Bcast distributes root's data to every live member and returns it.
// Each epoch is three rounds: every current holder floods the data to
// the live non-holders (epoch 0: only the source holds it), every
// member reports holder status to the live coordinator, and the
// coordinator issues the verdict. If the source crashes before any
// survivor received a copy, the data is unrecoverable and every
// survivor returns ErrLost together.
func (f *FT) Bcast(root int, data []byte) ([]byte, error) {
	defer hbsp.Span(f.c, "ft-bcast")(len(data))
	call := f.calls
	f.calls++
	have := data
	if f.c.Pid() != root {
		have = nil
	}
	limit := maxEpochs(len(f.scope.Leaves()))
	for attempt := 0; attempt < limit; attempt++ {
		live := f.Live()
		coord := f.Coordinator()
		dataTag := ftTag(ftOpData, call, attempt)
		statusTag := ftTag(ftOpStatus, call, attempt)
		verdictTag := ftTag(ftOpVerdict, call, attempt)

		// Round 1: holders flood.
		if have != nil {
			for _, pid := range live {
				if pid != f.c.Pid() {
					if err := f.c.Send(pid, dataTag, have); err != nil {
						return nil, err
					}
				}
			}
		}
		if retry, err := f.sync("ft-bcast data"); err != nil {
			return nil, err
		} else if retry {
			continue
		}
		if have == nil {
			for _, p := range f.moves(dataTag) {
				have = bytes.Clone(p)
				break
			}
		}

		// Round 2: holder status to the coordinator.
		status := byte(0)
		if have != nil {
			status = 1
		}
		if f.c.Pid() != coord {
			for i := 0; i < verdictCopies; i++ {
				if err := f.c.Send(coord, statusTag, []byte{status}); err != nil {
					return nil, err
				}
			}
		}
		if retry, err := f.sync("ft-bcast status"); err != nil {
			return nil, err
		} else if retry {
			continue
		}

		// Round 3: verdict. A missing status report counts as
		// not-holding — at worst one spare epoch, never a wrong verdict.
		var v byte
		if f.c.Pid() == coord {
			holders, total := 0, 0
			if status == 1 {
				holders++
			}
			reported := f.moves(statusTag)
			for _, pid := range live {
				if pid == coord {
					total++
					continue
				}
				total++
				if s, ok := reported[pid]; ok && len(s) == 1 && s[0] == 1 {
					holders++
				}
			}
			switch {
			case holders == total:
				v = verdictOK
			case holders == 0:
				v = verdictLost
			default:
				v = verdictFail
			}
			if err := f.sendVerdict(verdictTag, live, v); err != nil {
				return nil, err
			}
		}
		if retry, err := f.sync("ft-bcast verdict"); err != nil {
			return nil, err
		} else if retry {
			continue
		}
		if f.c.Pid() != coord {
			var err error
			if v, err = f.readVerdict(verdictTag, coord); err != nil {
				return nil, err
			}
		}
		switch v {
		case verdictOK:
			return have, nil
		case verdictLost:
			return nil, fmt.Errorf("%w (source p%d)", ErrLost, root)
		}
	}
	return nil, fmt.Errorf("collective: ft-bcast gave up after %d epochs", limit)
}

// Reduce folds every live member's vector with op at the live
// coordinator, which returns the result (others return nil) along with
// the coordinator's pid. Contributions are deduplicated by origin, and
// the coordinator only folds — and only reports success — when every
// live member's vector arrived, so a returned result is exactly the
// fold over the members live at return time (plus, after a late crash,
// possibly the victim's correct pre-crash contribution from an epoch
// that had already completed: shrink never corrupts, it only re-scopes).
func (f *FT) Reduce(local []int64, op Op) ([]int64, int, error) {
	defer hbsp.Span(f.c, "ft-reduce")(8 * len(local))
	call := f.calls
	f.calls++
	limit := maxEpochs(len(f.scope.Leaves()))
	for attempt := 0; attempt < limit; attempt++ {
		live := f.Live()
		root := f.Coordinator()
		dataTag := ftTag(ftOpData, call, attempt)
		verdictTag := ftTag(ftOpVerdict, call, attempt)

		if f.c.Pid() != root {
			if err := f.c.Send(root, dataTag, packVec(local)); err != nil {
				return nil, -1, err
			}
		}
		if retry, err := f.sync("ft-reduce data"); err != nil {
			return nil, -1, err
		} else if retry {
			continue
		}

		var acc []int64
		if f.c.Pid() == root {
			got := f.moves(dataTag)
			v := byte(verdictOK)
			for _, pid := range live {
				if pid == root {
					continue
				}
				if _, ok := got[pid]; !ok {
					v = verdictFail
					break
				}
			}
			if v == verdictOK {
				acc = append([]int64(nil), local...)
				for _, pid := range live {
					if pid == root {
						continue
					}
					if err := op.fold(f.c, acc, got[pid]); err != nil {
						return nil, -1, err
					}
				}
			}
			if err := f.sendVerdict(verdictTag, live, v); err != nil {
				return nil, -1, err
			}
			if retry, err := f.sync("ft-reduce verdict"); err != nil {
				return nil, -1, err
			} else if retry {
				continue
			}
			if v == verdictOK {
				return acc, root, nil
			}
			continue
		}
		if retry, err := f.sync("ft-reduce verdict"); err != nil {
			return nil, -1, err
		} else if retry {
			continue
		}
		v, err := f.readVerdict(verdictTag, root)
		if err != nil {
			return nil, -1, err
		}
		if v == verdictOK {
			return nil, root, nil
		}
	}
	return nil, -1, fmt.Errorf("collective: ft-reduce gave up after %d epochs", limit)
}

// AllReduce is Reduce at the live coordinator followed by Bcast of the
// result: every live member returns the fold over the survivor set, the
// coordinator the vector it folded rather than a decode of its
// broadcast. If the coordinator dies between the phases and takes the
// only copy of the result with it, every survivor observes ErrLost
// together and the whole operation restarts over the new survivor set —
// the reduction inputs still exist on the members, so nothing is
// permanently lost.
func (f *FT) AllReduce(local []int64, op Op) ([]int64, error) {
	defer hbsp.Span(f.c, "ft-allreduce")(8 * len(local))
	const restarts = 4
	for i := 0; i < restarts; i++ {
		red, root, err := f.Reduce(local, op)
		if err != nil {
			return nil, err
		}
		var wire []byte
		if f.c.Pid() == root {
			wire = packVec(red)
		}
		out, err := f.Bcast(root, wire)
		if errors.Is(err, ErrLost) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if red != nil {
			return red, nil
		}
		return unpackVec(out)
	}
	return nil, fmt.Errorf("collective: ft-allreduce: coordinator kept dying through %d restarts", restarts)
}
