// Package catalog is the run side of the one cost table (DESIGN.md
// §5.9): every collective program the command-line tools run, by name,
// each paired with the plan.CostVariants row it runs. hbspk-sim runs an
// entry's program, hbspk-predict prints its row's price and hbspk-worker
// runs the bcast-reduce entry across processes.
//
// A program builds its row's inputs the way the row prices them, and
// this file is the one place that says how: the root is the fastest
// leaf, byte rows take cost.BalancedDist bytes (the two-phase broadcast
// takes collective.BalancedPieces), and vector rows take n/(8p)-element
// vectors. TestEveryRowRunsWhatItPrices joins the two sides.
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

// vecLen is the element count of each processor's vector in a vector
// row: n/(8p), at least one.
func vecLen(tr *model.Tree, n int) int { return max(1, n/8/tr.NProcs()) }

// Entries returns the catalogue: the cost-table rows in table order,
// then the programs no row prices.
func Entries() []Entry {
	return []Entry{
		{"gather", "Gather", pieces(func(c hbsp.Ctx, r int, b []byte) (map[int][]byte, error) {
			return collective.Gather(c, c.Tree().Root, r, b)
		})},
		{"gather-hier", "GatherHier", pieces(func(c hbsp.Ctx, _ int, b []byte) (map[int][]byte, error) {
			return collective.GatherHier(c, b)
		})},
		{"bcast1", "BcastOnePhase", bcast(func(c hbsp.Ctx, r int, in []byte) ([]byte, error) {
			return collective.BcastOnePhase(c, c.Tree().Root, r, in)
		})},
		{"bcast2", "BcastTwoPhase", bcast(func(c hbsp.Ctx, r int, in []byte) ([]byte, error) {
			var d collective.Dist
			if c.Pid() == r {
				d = collective.BalancedPieces(c, c.Tree().Root, len(in))
			}
			_, err := collective.BcastTwoPhase(c, c.Tree().Root, r, in, d)
			return nil, err
		})},
		{"bcast-binomial", "BcastBinomial", bcast(func(c hbsp.Ctx, r int, in []byte) ([]byte, error) {
			return collective.BcastBinomial(c, c.Tree().Root, r, in)
		})},
		{"bcast-hier", "BcastHier", bcast(func(c hbsp.Ctx, _ int, in []byte) ([]byte, error) {
			return collective.BcastHier(c, in, false)
		})},
		{"bcast-hier-2p", "BcastHierTwoPhase", bcast(func(c hbsp.Ctx, _ int, in []byte) ([]byte, error) {
			return collective.BcastHier(c, in, true)
		})},
		{"scatter", "Scatter", scatter(func(c hbsp.Ctx, r int, ps map[int][]byte) error {
			_, err := collective.Scatter(c, c.Tree().Root, r, ps)
			return err
		})},
		{"scatter-hier", "ScatterHier", scatter(func(c hbsp.Ctx, _ int, ps map[int][]byte) error {
			_, err := collective.ScatterHier(c, ps)
			return err
		})},
		{"allgather", "AllGather", pieces(func(c hbsp.Ctx, _ int, b []byte) (map[int][]byte, error) {
			_, err := collective.AllGather(c, c.Tree().Root, b)
			return nil, err
		})},
		{"allgather-hier", "AllGatherHier", pieces(func(c hbsp.Ctx, _ int, b []byte) (map[int][]byte, error) {
			_, err := collective.AllGatherHier(c, b)
			return nil, err
		})},
		{"reduce", "Reduce", vector(func(c hbsp.Ctx, r int, v []int64) ([]int64, error) {
			return collective.Reduce(c, c.Tree().Root, r, v, collective.Sum)
		})},
		{"reduce-hier", "ReduceHier", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			return collective.ReduceHier(c, v, collective.Sum)
		})},
		{"allreduce", "AllReduce", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			return collective.AllReduce(c, v, collective.Sum)
		})},
		{"reduce-scatter", "ReduceScatter", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			t := c.Tree()
			return collective.ReduceScatter(c, t.Root, v, collective.EqualPieces(c, t.Root, len(v)), collective.Sum)
		})},
		{"scan", "Scan", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			_, err := collective.Scan(c, c.Tree().Root, v, collective.Sum)
			return nil, err
		})},
		{"scan-hier", "ScanHier", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			_, err := collective.ScanHier(c, v, collective.Sum)
			return nil, err
		})},
		{"alltoall", "TotalExchange", pieces(func(c hbsp.Ctx, _ int, b []byte) (map[int][]byte, error) {
			out := map[int][]byte{}
			for pid := 0; pid < c.NProcs(); pid++ {
				out[pid] = make([]byte, len(b)/c.NProcs())
			}
			_, err := collective.TotalExchange(c, c.Tree().Root, out)
			return nil, err
		})},
		{"auto", "", auto},
		{"bcast-reduce", "", bcastReduce},
		{"ft-gather", "", pieces(func(c hbsp.Ctx, _ int, b []byte) (map[int][]byte, error) {
			_, _, err := collective.NewFT(c, c.Tree().Root).Gather(b)
			return nil, err
		})},
		{"ft-bcast", "", bcast(func(c hbsp.Ctx, r int, in []byte) ([]byte, error) {
			_, err := collective.NewFT(c, c.Tree().Root).Bcast(r, in)
			return nil, err
		})},
		{"ft-reduce", "", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			_, _, err := collective.NewFT(c, c.Tree().Root).Reduce(v, collective.Sum)
			return nil, err
		})},
		{"ft-allreduce", "", vector(func(c hbsp.Ctx, _ int, v []int64) ([]int64, error) {
			_, err := collective.NewFT(c, c.Tree().Root).AllReduce(v, collective.Sum)
			return nil, err
		})},
		{"churn-soak", "", churnSoak},
		{"nondet-reduce", "", nondetReduce},
		{"mutate-send", "", mutateSend},
	}
}

// The input conventions, one builder per input shape. Each hands its
// collective the root's pid and this processor's input, and saves a
// non-nil result so schedule fingerprints compare final states.

// pieces: each processor holds its cost.BalancedDist bytes.
func pieces(run func(c hbsp.Ctx, r int, b []byte) (map[int][]byte, error)) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		d, r := cost.BalancedDist(tr, a.N), root(tr)
		return func(c hbsp.Ctx) error {
			out, err := run(c, r, make([]byte, d[c.Pid()]))
			if out != nil {
				c.Save("result", digestMap(out))
			}
			return err
		}
	}
}

// bcast: the root holds all n bytes, every other processor nil.
func bcast(run func(c hbsp.Ctx, r int, in []byte) ([]byte, error)) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		r := root(tr)
		return func(c hbsp.Ctx) error {
			var in []byte
			if c.Pid() == r {
				in = make([]byte, a.N)
			}
			out, err := run(c, r, in)
			if out != nil {
				c.Save("result", out)
			}
			return err
		}
	}
}

// scatter: the root holds one piece of cost.BalancedDist bytes per pid,
// every other processor nil.
func scatter(run func(c hbsp.Ctx, r int, ps map[int][]byte) error) Builder {
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
			return run(c, r, ps)
		}
	}
}

// vector: each processor holds an n/(8p)-element vector.
func vector(run func(c hbsp.Ctx, r int, v []int64) ([]int64, error)) Builder {
	return func(tr *model.Tree, a Args) hbsp.Program {
		l, r := vecLen(tr, a.N), root(tr)
		return func(c hbsp.Ctx) error {
			out, err := run(c, r, make([]int64, l))
			if out != nil {
				c.Save("result", digestVec(out))
			}
			return err
		}
	}
}

// auto is an iterative mixed workload dispatched entirely through the
// auto-tuning planner: each round broadcasts from the fastest leaf,
// gathers back, folds a vector and prefix-scans it. The planner picks
// each family's variant from the closed-form cost table once per size
// bucket and serves every later round from its cache.
func auto(tr *model.Tree, a Args) hbsp.Program {
	r, d, l, pl := root(tr), cost.BalancedDist(tr, a.N), vecLen(tr, a.N), a.Planner
	return func(c hbsp.Ctx) error {
		for round := 0; round < a.Rounds; round++ {
			var data []byte
			if c.Pid() == r {
				data = make([]byte, a.N)
			}
			if _, err := collective.PlannedBcast(c, pl, a.N, data); err != nil {
				return err
			}
			if _, err := collective.PlannedGather(c, pl, a.N, make([]byte, d[c.Pid()])); err != nil {
				return err
			}
			if _, err := collective.PlannedAllReduce(c, pl, make([]int64, l), collective.Sum); err != nil {
				return err
			}
			if _, err := collective.PlannedScan(c, pl, make([]int64, l), collective.Sum); err != nil {
				return err
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
