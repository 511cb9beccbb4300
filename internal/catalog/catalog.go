// Package catalog is the one list of collective programs (DESIGN.md
// §5.9) that the command-line tools and the collective tests run. A
// collective entry names its family, whose oracle checks every
// processor's result, and a priced one the plan.CostVariants row whose
// collective.RowCalls call it runs, on inputs built here as the row
// prices them. The check charges nothing, so a run costs what its row
// prices; TestEveryRowRunsWhatItPrices joins the two sides.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// Args parameterizes an entry's program.
type Args struct {
	// N is the problem size in bytes.
	N int
	// Rounds is the iteration count of the iterative entries (auto,
	// bcast-reduce, churn-soak).
	Rounds int
	// Planner dispatches the auto entry's collectives.
	Planner *plan.Planner
}

// Entry is one named program: one collective call, or several (prog).
type Entry struct {
	// Name is the command-line name ("gather-hier").
	Name string
	// Variant is the plan.CostVariants row the program runs; empty for
	// a program no row prices.
	Variant string
	// Family is the collective family whose oracle checks the call's
	// result ("gather"); empty for a program that is no one call.
	Family string

	call any                                  // the call, of its family's signature
	root func(*model.Tree) int                // the pid the call roots at
	at   func(root func(*model.Tree) int) any // the call at any root; nil for a call that roots at one pid only
	ft   bool                                 // the call runs over the members that survive it
	prog func(tr *model.Tree, a Args) hbsp.Program
}

// Row returns the cost-table row the entry runs; ok is false for an
// entry that runs none.
func (e Entry) Row() (plan.CostVariant, bool) {
	return plan.VariantByName(e.Variant)
}

// Lookup returns the named entry.
func Lookup(name string) (Entry, error) {
	for _, e := range Entries() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown collective %q (want one of: %s)", name, Names(false))
}

// Names lists the entry names, comma-separated in catalogue order; with
// priced set, only the entries that run a cost-table row.
func Names(priced bool) string {
	var names []string
	for _, e := range Entries() {
		if !priced || e.Variant != "" {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, ", ")
}

// Entries returns the catalogue: the cost-table rows in table order,
// then the programs no row prices.
func Entries() []Entry {
	return []Entry{
		priced("gather", "Gather"),
		priced("gather-hier", "GatherHier"),
		priced("bcast1", "BcastOnePhase"),
		priced("bcast2", "BcastTwoPhase"),
		priced("bcast-binomial", "BcastBinomial"),
		priced("bcast-hier", "BcastHier"),
		priced("bcast-hier-2p", "BcastHierTwoPhase"),
		priced("scatter", "Scatter"),
		priced("scatter-hier", "ScatterHier"),
		priced("allgather", "AllGather"),
		priced("allgather-hier", "AllGatherHier"),
		priced("reduce", "Reduce"),
		priced("reduce-hier", "ReduceHier"),
		priced("allreduce", "AllReduce"),
		priced("reduce-scatter", "ReduceScatter"),
		priced("scan", "Scan"),
		priced("scan-hier", "ScanHier"),
		priced("alltoall", "TotalExchange"),
		{Name: "auto", prog: auto},
		{Name: "bcast-reduce", prog: bcastReduce},
		unpriced("alltoall-hier", "alltoall", collective.ExchangeCall(collective.TotalExchangeHier)),
		{Name: "ft-gather", Family: "gather", root: collective.FastestPid, ft: true, call: collective.GatherCall(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
			out, _, err := collective.NewFT(c, c.Tree().Root).Gather(b)
			return out, err
		})},
		{Name: "ft-bcast", Family: "bcast", root: collective.FastestPid, ft: true, call: ftBcast(collective.FastestPid), at: ftBcast},
		{Name: "ft-reduce", Family: "reduce", root: collective.FastestPid, ft: true, call: collective.VectorCall(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			out, _, err := collective.NewFT(c, c.Tree().Root).Reduce(v, op)
			return out, err
		})},
		{Name: "ft-allreduce", Family: "allreduce", root: collective.FastestPid, ft: true, call: collective.VectorCall(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			return collective.NewFT(c, c.Tree().Root).AllReduce(v, op)
		})},
		{Name: "churn-soak", prog: churnSoak},
		{Name: "nondet-reduce", prog: nondetReduce},
		{Name: "mutate-send", prog: mutateSend},
	}
}

// priced is the entry that runs the named cost-table row's
// collective.RowCalls call.
func priced(name, row string) Entry {
	v, _ := plan.VariantByName(row)
	e := unpriced(name, v.Family, collective.RowCalls[row])
	e.Variant, e.at = row, collective.RootedCalls[row]
	return e
}

// unpriced is the entry of a call no row prices.
func unpriced(name, family string, call any) Entry {
	return Entry{Name: name, Family: family, root: collective.FastestPid, call: call}
}

// ftBcast is the fault-tolerant broadcast from root's pid.
func ftBcast(root func(*model.Tree) int) any {
	return collective.BcastCall(func(c hbsp.Ctx, d []byte) ([]byte, error) {
		return collective.NewFT(c, c.Tree().Root).Bcast(root(c.Tree()), d)
	})
}

// At returns the entry rooted at pid r; ok is false for an entry whose
// call roots at one pid only.
func (e Entry) At(r int) (Entry, bool) {
	if e.at == nil {
		return e, false
	}
	e.root = func(*model.Tree) int { return r }
	e.Name, e.call = fmt.Sprintf("%s@%d", e.Name, r), e.at(e.root)
	return e, true
}

// planned is the one family → Planned* map: each family's dispatcher,
// bound to a planner and the total bytes n it prices the call at.
var planned = map[string]func(pl *plan.Planner, n int) any{
	"bcast":     bind[collective.BcastCall](collective.PlannedBcast),
	"gather":    bind[collective.GatherCall](collective.PlannedGather),
	"scatter":   bind[collective.ScatterCall](collective.PlannedScatter),
	"allgather": bind[collective.GatherCall](collective.PlannedAllGather),
	"alltoall":  bind[collective.ExchangeCall](collective.PlannedTotalExchange),
	"reduce":    bindVec(collective.PlannedReduce),
	"allreduce": bindVec(collective.PlannedAllReduce),
	"scan":      bindVec(collective.PlannedScan),
}

// Planned returns the entry that runs family through pl's pick at n
// total bytes; ok is false for a family no Planned* dispatcher runs.
func Planned(family string, pl *plan.Planner, n int) (Entry, bool) {
	f, ok := planned[family]
	if !ok {
		return Entry{}, false
	}
	return unpriced("planned-"+family, family, f(pl, n)), true
}

// bind makes a byte family's Planned* dispatcher a call of type F.
func bind[F ~func(hbsp.Ctx, A) (R, error), A, R any](f func(hbsp.Ctx, *plan.Planner, int, A) (R, error)) func(*plan.Planner, int) any {
	return func(pl *plan.Planner, n int) any {
		return F(func(c hbsp.Ctx, a A) (R, error) { return f(c, pl, n, a) })
	}
}

// bindVec makes a vector family's Planned* dispatcher a VectorCall.
func bindVec(f func(hbsp.Ctx, *plan.Planner, []int64, collective.Op) ([]int64, error)) func(*plan.Planner, int) any {
	return func(pl *plan.Planner, _ int) any {
		return collective.VectorCall(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) { return f(c, pl, v, op) })
	}
}

// Input is what every pid holds before a call. The oracles read all of
// it, so each processor checks its own result without communicating.
type Input struct {
	Bytes [][]byte  // gather and scatter pieces; a broadcast's data at its root
	Vecs  [][]int64 // vectors, folded with Op
	Op    collective.Op
	Out   []map[int][]byte // alltoall pieces by destination
}

// Payload is the content of every input the catalogue builds: size bytes
// that are a function of (pid, index), so any processor can recompute
// any other's.
func Payload(pid, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(pid*31 + i*7 + 0x5A)
	}
	return out
}

// inputs builds the input of family's rows at n bytes: a broadcast's
// root holds all n, alltoall cuts each pid's share in p equal pieces.
func inputs(tr *model.Tree, family string, n, root int) *Input {
	p, d := tr.NProcs(), cost.BalancedDist(tr, n)
	in := &Input{Bytes: make([][]byte, p), Vecs: make([][]int64, p), Op: collective.Sum, Out: make([]map[int][]byte, p)}
	for pid := range in.Bytes {
		switch family {
		case "bcast":
			if pid == root {
				in.Bytes[pid] = Payload(pid, n)
			}
		case "alltoall":
			in.Out[pid] = map[int][]byte{}
			for dst := 0; dst < p; dst++ {
				in.Out[pid][dst] = Payload(pid*p+dst, d[pid]/p)
			}
		case "reduce", "allreduce", "reduce-scatter", "scan":
			in.Vecs[pid] = make([]int64, plan.VecLen(tr, n))
			for i, b := range Payload(pid, len(in.Vecs[pid])) {
				in.Vecs[pid][i] = int64(b)
			}
		default:
			in.Bytes[pid] = Payload(pid, d[pid])
		}
	}
	return in
}

// Program builds the entry's SPMD program for a run on tr. A collective
// entry runs its call on its rows' inputs (On).
func (e Entry) Program(tr *model.Tree, a Args) hbsp.Program {
	if e.prog != nil {
		return e.prog(tr, a)
	}
	return e.On(inputs(tr, e.Family, a.N, e.root(tr)))
}

// On is the program that runs e's call on in and saves the checked
// result, so that schedule fingerprints compare results.
func (e Entry) On(in *Input) hbsp.Program {
	return func(c hbsp.Ctx) error {
		got, err := e.Run(c, in)
		if d := encode(got); d != nil {
			c.Save("result", d)
		}
		return err
	}
}

// Run hands e's call this processor's part of in and checks the result.
func (e Entry) Run(c hbsp.Ctx, in *Input) (got any, err error) {
	root, pid := e.root(c.Tree()), c.Pid()
	switch f := e.call.(type) {
	case collective.BcastCall:
		got, err = f(c, only(pid == root, in.Bytes[root]))
	case collective.GatherCall:
		got, err = f(c, in.Bytes[pid])
	case collective.ScatterCall:
		got, err = f(c, only(pid == root, in.pieces(c.Tree().Root.Pids())))
	case collective.ExchangeCall:
		got, err = f(c, in.Out[pid])
	case collective.VectorCall:
		got, err = f(c, in.Vecs[pid], in.Op)
	default:
		return nil, fmt.Errorf("catalog: no collective call runs %s", e.Name)
	}
	if err != nil {
		return nil, err
	}
	return got, e.Check(c, in, got)
}

// Check compares got, this processor's result of e's call on in, with
// the family's oracle, naming the entry, the pid and the first difference.
func (e Entry) Check(c hbsp.Ctx, in *Input, got any) error {
	t := c.Tree()
	oracle, root, pid := oracles[e.Family], e.root(t), c.Pid()
	members, failed := t.Root.Pids(), []int(nil) // in the order a scan folds them
	if e.Variant == "ScanHier" {
		members = nil
		for _, l := range t.Root.Leaves() {
			members = append(members, t.Pid(l))
		}
	}
	if e.ft {
		// A fault-tolerant call runs over the members that survive it and
		// gathers or folds at their coordinator. A member that failed may
		// count as well: it may have done its part before it died.
		s := collective.NewFT(c, t.Root)
		members, failed = s.Live(), c.Failed()
		if e.Family != "bcast" {
			root = s.Coordinator()
		}
	}
	d := diff(got, oracle(in, members, root, pid))
	for set := 1; d != "" && set < 1<<len(failed); set++ {
		with := slices.Clone(members)
		for i, f := range failed {
			if set>>i&1 == 1 {
				with = append(with, f)
			}
		}
		slices.Sort(with)
		if diff(got, oracle(in, with, root, pid)) == "" {
			return nil
		}
	}
	if d != "" {
		return fmt.Errorf("catalog: %s: pid %d %s", e.Name, pid, d)
	}
	return nil
}

// oracles says, per family, what pid holds after a call on in over
// members rooted at root; a scan folds the members in their order. A
// gather or reduce leaves nothing off its root.
var oracles = map[string]func(in *Input, members []int, root, pid int) any{
	"bcast":     func(in *Input, _ []int, root, _ int) any { return in.Bytes[root] },
	"scatter":   func(in *Input, _ []int, _, pid int) any { return in.Bytes[pid] },
	"gather":    func(in *Input, members []int, root, pid int) any { return only(pid == root, in.pieces(members)) },
	"allgather": func(in *Input, members []int, _, _ int) any { return in.pieces(members) },
	"alltoall": func(in *Input, _ []int, _, pid int) any {
		m := map[int][]byte{}
		for src, out := range in.Out {
			if b, ok := out[pid]; ok {
				m[src] = b
			}
		}
		return m
	},
	"reduce":    func(in *Input, members []int, root, pid int) any { return only(pid == root, in.fold(members)) },
	"allreduce": func(in *Input, members []int, _, _ int) any { return in.fold(members) },
	// collective.EqualPieces' segments, in pid order.
	"reduce-scatter": func(in *Input, members []int, _, pid int) any {
		acc, p := in.fold(members), len(members)
		q, r := len(acc)/p, len(acc)%p
		return acc[pid*q+min(pid, r) : (pid+1)*q+min(pid+1, r)]
	},
	"scan": func(in *Input, members []int, _, pid int) any { return in.fold(members[:slices.Index(members, pid)+1]) },
}

// only is v where held is set, and nothing elsewhere.
func only[T any](held bool, v T) T {
	if !held {
		var none T
		return none
	}
	return v
}

// pieces is the piece of each of pids, keyed by pid.
func (in *Input) pieces(pids []int) map[int][]byte {
	m := make(map[int][]byte, len(pids))
	for _, pid := range pids {
		m[pid] = in.Bytes[pid]
	}
	return m
}

// fold applies Op element-wise over the vectors of pids, left to right.
func (in *Input) fold(pids []int) []int64 {
	acc := slices.Clone(in.Vecs[pids[0]])
	for _, pid := range pids[1:] {
		for i := range acc {
			acc[i] = in.Op.Apply(acc[i], in.Vecs[pid][i])
		}
	}
	return acc
}

// diff describes the first way got differs from want, or is empty when
// they agree. A nil map or vector wants nothing held.
func diff(got, want any) string {
	switch w := want.(type) {
	case []byte:
		return first(got.([]byte), w)
	case []int64:
		if g := got.([]int64); w != nil || g == nil {
			return first(g, w)
		}
		return "holds a vector, want none"
	case map[int][]byte:
		g := got.(map[int][]byte)
		if w == nil && g != nil || len(g) != len(w) {
			return fmt.Sprintf("holds %d pieces, want %d", len(g), len(w))
		}
		for _, pid := range keys(w) {
			if gb, ok := g[pid]; !ok {
				return fmt.Sprintf("holds no piece from pid %d", pid)
			} else if d := first(gb, w[pid]); d != "" {
				return fmt.Sprintf("piece from pid %d %s", pid, d)
			}
		}
	}
	return ""
}

// keys returns m's keys in order.
func keys(m map[int][]byte) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// first describes the first element where got differs from want.
func first[T comparable](got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("holds %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// auto is an iterative mixed workload dispatched entirely through the
// auto-tuning planner: each round broadcasts from the fastest leaf,
// gathers back, folds a vector and prefix-scans it, each on its
// family's inputs. The planner picks each family's variant from the
// closed-form cost table once per size bucket and serves every later
// round from its cache.
func auto(tr *model.Tree, a Args) hbsp.Program {
	var steps []hbsp.Program
	for _, family := range []string{"bcast", "gather", "allreduce", "scan"} {
		e, _ := Planned(family, a.Planner, a.N)
		steps = append(steps, e.Program(tr, a))
	}
	return func(c hbsp.Ctx) error {
		for round := 0; round < a.Rounds; round++ {
			for _, step := range steps {
				if err := step(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// bcastReduce is the verified multi-process program: per round, pid 0
// broadcasts an n-byte Payload and every processor folds a value
// derived from it into a total at pid 0. Every processor checks its
// result of both calls, so a clean run is an end-to-end correctness
// statement, not only liveness.
func bcastReduce(tr *model.Tree, a Args) hbsp.Program {
	bcast, _ := priced("bcast1", "BcastOnePhase").At(0)
	reduce, _ := priced("reduce", "Reduce").At(0)
	return func(c hbsp.Ctx) error {
		p := c.NProcs()
		for r := 0; r < a.Rounds; r++ {
			in := &Input{Bytes: make([][]byte, p), Vecs: make([][]int64, p), Op: collective.Sum}
			in.Bytes[0] = Payload(r, a.N)
			sum := digest(in.Bytes[0])
			for pid := range in.Vecs {
				// Processor pid contributes digest·(pid+1) + r.
				in.Vecs[pid] = []int64{sum*int64(pid+1) + int64(r)}
			}
			for _, e := range []Entry{bcast, reduce} {
				if _, err := e.Run(c, in); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
			}
		}
		return nil
	}
}

// digest folds a payload into 16 bits: what the reduce carries of it.
func digest(data []byte) int64 {
	var sum int64
	for _, b := range data {
		sum = (sum*31 + int64(b)) & 0xFFFF
	}
	return sum
}

// churnSoak is a self-synchronizing iterative workload built to survive
// a shrinking membership: processor 0 coordinates termination by
// broadcasting a stop flag each round to every processor it does not
// know to be dead, while the others fold data back; a death notice
// (ErrPeerFailed, a crash or an orderly leave) is absorbed by re-sending
// and retrying the barrier. Pairs with hbspk-sim's -churn, -crash,
// -straggler and -reorg-every.
func churnSoak(tr *model.Tree, a Args) hbsp.Program {
	d := cost.BalancedDist(tr, a.N)
	return func(c hbsp.Ctx) error {
		const (
			soakCtl  = 7
			soakData = 8
		)
		root := c.Tree().Root
		var sum int64
		stop := false
		for round := 0; !stop; round++ {
			for { // one retry per absorbed membership notice
				failed := map[int]bool{}
				for _, f := range c.Failed() {
					failed[f] = true
				}
				if c.Pid() == 0 {
					flag := byte(0)
					if round >= a.Rounds-1 {
						flag = 1
					}
					for m := 1; m < c.NProcs(); m++ {
						if !failed[m] {
							if err := c.Send(m, soakCtl, []byte{flag}); err != nil {
								return err
							}
						}
					}
				} else {
					if err := c.Send(0, soakData, []byte{byte(c.Pid())}); err != nil {
						return err
					}
				}
				c.Charge(float64(d[c.Pid()]))
				err := c.Sync(root, "soak")
				if err == nil {
					break
				}
				var pf *hbsp.ErrPeerFailed
				if !errors.As(err, &pf) {
					return err
				}
			}
			for _, m := range c.Moves() {
				switch {
				case c.Pid() == 0 && m.Tag == soakData:
					sum += int64(m.Payload[0]) + int64(round)
				case m.Src == 0 && m.Tag == soakCtl:
					stop = m.Payload[0] == 1
				}
			}
			if c.Pid() == 0 {
				stop = round >= a.Rounds-1
			}
		}
		if c.Pid() == 0 {
			c.Save("fold", encode([]int64{sum}))
		}
		return nil
	}
}

// nondetReduce is deliberately schedule-dependent: the root folds
// arrivals in delivery order with a non-commutative op. No
// happens-before rule is broken, so Verify alone stays silent — only
// schedule exploration exposes the order dependence as a state diff.
func nondetReduce(tr *model.Tree, _ Args) hbsp.Program {
	r := collective.FastestPid(tr)
	return func(c hbsp.Ctx) error {
		if c.Pid() != r {
			if err := c.Send(r, 1, []byte{byte(c.Pid() + 1)}); err != nil {
				return err
			}
		}
		if err := hbsp.SyncAll(c, "nondet-gather"); err != nil {
			return err
		}
		if c.Pid() == r {
			total := int64(1)
			for _, m := range c.Moves() {
				total = total*2 - int64(m.Payload[0])
			}
			c.Save("total", encode([]int64{total}))
		}
		return nil
	}
}

// mutateSend is deliberately racy: the sender mutates the payload after
// Send, before the barrier delivers it — the happens-before checker
// reports ErrNondeterminism at the receiver under Verify.
func mutateSend(tr *model.Tree, _ Args) hbsp.Program {
	r := collective.FastestPid(tr)
	return func(c hbsp.Ctx) error {
		buf := []byte{1, 2, 3, 4}
		if c.Pid() == r {
			if err := c.Send((r+1)%c.NProcs(), 0, buf); err != nil {
				return err
			}
			buf[0] = 0xEE // deliberate: this demo exists to trip the runtime verifier
		}
		return hbsp.SyncAll(c, "deliver")
	}
}

// encode encodes a result for Save, so schedule fingerprints compare
// final states: a map as each pid, length and piece in pid order, a
// vector as its little-endian elements; nil for no result.
func encode(got any) []byte {
	var d []byte
	switch r := got.(type) {
	case []byte:
		return r
	case map[int][]byte:
		for _, pid := range keys(r) {
			d = binary.AppendUvarint(binary.AppendUvarint(d, uint64(pid)), uint64(len(r[pid])))
			d = append(d, r[pid]...)
		}
	case []int64:
		for _, x := range r {
			d = binary.LittleEndian.AppendUint64(d, uint64(x))
		}
	}
	return d
}
