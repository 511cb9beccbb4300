// Package catalog is the run side of the one cost table (DESIGN.md
// §5.9): every collective program the command-line tools run, by name,
// each paired with the plan.CostVariants row it runs. A priced entry
// runs its row's collective.RowCalls call; hbspk-sim runs an entry's
// program, hbspk-predict prints its row's price and hbspk-worker runs
// the bcast-reduce entry across processes.
//
// A program builds its row's inputs the way the row prices them, and
// this file is the one place that says how: the root is the fastest
// leaf, byte rows take cost.BalancedDist bytes, and vector rows take
// plan.VecLen-element vectors. TestEveryRowRunsWhatItPrices joins the
// two sides.
package catalog

import (
	"bytes"
	"errors"
	"fmt"
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

// Entry is one named collective program.
type Entry struct {
	// Name is the command-line name ("gather-hier").
	Name string
	// Variant is the plan.CostVariants row the program runs; empty for
	// a program no row prices.
	Variant string
	// Program builds the SPMD body for a run on tr.
	Program Builder
}

// Builder builds an SPMD program for a run on tr.
type Builder func(tr *model.Tree, a Args) hbsp.Program

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

// root is the pid every rooted program roots at: the fastest leaf.
func root(tr *model.Tree) int { return tr.Pid(tr.FastestLeaf()) }

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
		{"auto", "", auto},
		{"bcast-reduce", "", bcastReduce},
		{"ft-gather", "", Pieces(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
			_, _, err := collective.NewFT(c, c.Tree().Root).Gather(b)
			return nil, err
		})},
		{"ft-bcast", "", Bcast(func(c hbsp.Ctx, in []byte) ([]byte, error) {
			_, err := collective.NewFT(c, c.Tree().Root).Bcast(root(c.Tree()), in)
			return nil, err
		})},
		{"ft-reduce", "", Vector(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			_, _, err := collective.NewFT(c, c.Tree().Root).Reduce(v, op)
			return nil, err
		})},
		{"ft-allreduce", "", Vector(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			_, err := collective.NewFT(c, c.Tree().Root).AllReduce(v, op)
			return nil, err
		})},
		{"churn-soak", "", churnSoak},
		{"nondet-reduce", "", nondetReduce},
		{"mutate-send", "", mutateSend},
	}
}

// priced is the entry that runs the named cost-table row: the row's
// collective.RowCalls call, on the inputs its signature takes.
func priced(name, row string) Entry {
	e := Entry{Name: name, Variant: row}
	switch f := collective.RowCalls[row].(type) {
	case collective.BcastCall:
		e.Program = Bcast(f)
	case collective.GatherCall:
		e.Program = Pieces(f)
	case collective.ScatterCall:
		e.Program = Scatter(f)
	case collective.ExchangeCall:
		e.Program = Pieces(exchange(f))
	case collective.VectorCall:
		e.Program = Vector(f)
	default:
		e.Program = func(*model.Tree, Args) hbsp.Program {
			return func(hbsp.Ctx) error { return fmt.Errorf("catalog: no collective call runs row %q", row) }
		}
	}
	return e
}

// The input conventions, one builder per input shape. Each builds the
// program that hands its call this processor's input, and saves a
// non-nil result so schedule fingerprints compare final states.

// Pieces: each processor holds its cost.BalancedDist bytes.
func Pieces(run collective.GatherCall) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		d := cost.BalancedDist(tr, a.N)
		return func(c hbsp.Ctx) error {
			out, err := run(c, make([]byte, d[c.Pid()]))
			if out != nil {
				c.Save("result", digestMap(out))
			}
			return err
		}
	}
}

// exchange runs an alltoall call on a processor's Pieces input, sent in
// p equal parts, one to each pid.
func exchange(run collective.ExchangeCall) collective.GatherCall {
	return func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
		out := make(map[int][]byte, c.NProcs())
		for pid := 0; pid < c.NProcs(); pid++ {
			out[pid] = make([]byte, len(b)/c.NProcs())
		}
		return run(c, out)
	}
}

// Bcast: the root holds all n bytes, every other processor nil.
func Bcast(run collective.BcastCall) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		r := root(tr)
		return func(c hbsp.Ctx) error {
			var in []byte
			if c.Pid() == r {
				in = make([]byte, a.N)
			}
			out, err := run(c, in)
			if out != nil {
				c.Save("result", out)
			}
			return err
		}
	}
}

// Scatter: the root holds one piece of cost.BalancedDist bytes per pid,
// every other processor nil.
func Scatter(run collective.ScatterCall) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		d, r := cost.BalancedDist(tr, a.N), root(tr)
		return func(c hbsp.Ctx) error {
			var ps map[int][]byte
			if c.Pid() == r {
				ps = make(map[int][]byte, len(d))
				for pid, b := range d {
					ps[pid] = make([]byte, b)
				}
			}
			out, err := run(c, ps)
			if out != nil {
				c.Save("result", out)
			}
			return err
		}
	}
}

// Vector: each processor holds a plan.VecLen-element vector, folded
// with collective.Sum.
func Vector(run collective.VectorCall) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		l := plan.VecLen(tr, a.N)
		return func(c hbsp.Ctx) error {
			out, err := run(c, make([]int64, l), collective.Sum)
			if out != nil {
				c.Save("result", digestVec(out))
			}
			return err
		}
	}
}

// auto is an iterative mixed workload dispatched entirely through the
// auto-tuning planner: each round broadcasts from the fastest leaf,
// gathers back, folds a vector and prefix-scans it, each on its
// family's inputs. The planner picks each family's variant from the
// closed-form cost table once per size bucket and serves every later
// round from its cache.
func auto(tr *model.Tree, a Args) hbsp.Program {
	pl, n := a.Planner, a.N
	steps := []hbsp.Program{
		Bcast(func(c hbsp.Ctx, data []byte) ([]byte, error) {
			return collective.PlannedBcast(c, pl, n, data)
		})(tr, a),
		Pieces(func(c hbsp.Ctx, b []byte) (map[int][]byte, error) {
			return collective.PlannedGather(c, pl, n, b)
		})(tr, a),
		Vector(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			return collective.PlannedAllReduce(c, pl, v, op)
		})(tr, a),
		Vector(func(c hbsp.Ctx, v []int64, op collective.Op) ([]int64, error) {
			return collective.PlannedScan(c, pl, v, op)
		})(tr, a),
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
// broadcasts an n-byte payload every processor can recompute, every
// processor checks what it received against it, and all fold a value
// derived from it into a total at pid 0 that has a closed form. A
// failed check is an error, so a clean run is an end-to-end
// correctness statement, not only liveness.
func bcastReduce(tr *model.Tree, a Args) hbsp.Program {
	return func(c hbsp.Ctx) error {
		root, n := c.Tree().Root, int64(c.NProcs())
		for r := 0; r < a.Rounds; r++ {
			want := detPayload(r, a.N)
			var data []byte
			if c.Pid() == 0 {
				data = want
			}
			got, err := collective.BcastOnePhase(c, root, 0, data)
			if err != nil {
				return fmt.Errorf("round %d broadcast: %w", r, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("round %d verify: broadcast payload diverged from the deterministic oracle", r)
			}
			// Processor pid contributes digest·(pid+1) + r.
			local := digest(got)*int64(c.Pid()+1) + int64(r)
			total, err := collective.Reduce(c, root, 0, []int64{local}, collective.Sum)
			if err != nil {
				return fmt.Errorf("round %d reduce: %w", r, err)
			}
			if c.Pid() == 0 {
				if oracle := digest(want)*n*(n+1)/2 + n*int64(r); len(total) != 1 || total[0] != oracle {
					return fmt.Errorf("round %d verify: reduce total %v, oracle %d", r, total, oracle)
				}
			}
		}
		return nil
	}
}

// detPayload is the deterministic broadcast body for a round — every
// process can recompute it, so receivers verify content, not just
// checksums.
func detPayload(round, nbytes int) []byte {
	out := make([]byte, nbytes)
	for i := range out {
		out[i] = byte(round*31 + i*7 + 0x5A)
	}
	return out
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
// elastic membership: processor 0 coordinates termination by
// broadcasting a stop flag each round while the other members fold data
// back; membership notices (ErrPeerJoined, ErrPeerFailed) are absorbed
// by re-sending and retrying the barrier. A late joiner does not know
// the round number — it obeys the stop flag. Pairs with hbspk-sim's
// -churn, -straggler and -reorg-every.
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
					for _, m := range c.Members() {
						if m != 0 && !failed[m] {
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
				var pj *hbsp.ErrPeerJoined
				var pf *hbsp.ErrPeerFailed
				if !errors.As(err, &pj) && !errors.As(err, &pf) {
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
			c.Save("fold", digestVec([]int64{sum}))
		}
		return nil
	}
}

// nondetReduce is deliberately schedule-dependent: the root folds
// arrivals in delivery order with a non-commutative op. No
// happens-before rule is broken, so Verify alone stays silent — only
// schedule exploration exposes the order dependence as a state diff.
func nondetReduce(tr *model.Tree, _ Args) hbsp.Program {
	r := root(tr)
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
			c.Save("total", digestVec([]int64{total}))
		}
		return nil
	}
}

// mutateSend is deliberately racy: the sender mutates the payload after
// Send, before the barrier delivers it — the happens-before checker
// reports ErrNondeterminism at the receiver under Verify.
func mutateSend(tr *model.Tree, _ Args) hbsp.Program {
	r := root(tr)
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

// digestMap encodes a pid-keyed result deterministically for Save, so
// schedule fingerprints compare final states rather than map order.
func digestMap(m map[int][]byte) []byte {
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var d []byte
	for _, pid := range pids {
		d = append(d, byte(pid), byte(len(m[pid])), byte(len(m[pid])>>8))
		d = append(d, m[pid]...)
	}
	return d
}

func digestVec(v []int64) []byte {
	d := make([]byte, 0, 8*len(v))
	for _, x := range v {
		d = append(d, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return d
}
