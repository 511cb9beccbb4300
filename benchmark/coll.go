package main

import (
	"math/rand"

	"hbspk/internal/collective"
	"hbspk/internal/hbsp"
	"hbspk/internal/plan"
)

// collBytes is the total payload of each collective in a round.
const collBytes = 64 << 10

// collNames are the span names of one round, in call order.
var collNames = []string{
	"collective.bcast_hier", "collective.gather_hier", "collective.allreduce",
	"collective.total_exchange_hier", "collective.planned_bcast",
}

// runCollectives is the collective workload over TCP loopback: one
// round is a two-phase hierarchical broadcast, a hierarchical gather, a
// sum all-reduce, a hierarchical total exchange and one planner-
// dispatched broadcast through a Planner all processors share. Each
// result is compared with what a sequential pass over the seeded inputs
// gives. The hierarchical collectives fix their root at the machine's
// fastest leaf, so there is no root for the seed to rotate.
func runCollectives(r *rep) error {
	tree := benchTree()
	root := tree.Pid(tree.FastestLeaf())
	rng := rand.New(rand.NewSource(r.Seed))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }

	bcast, planned := fill(collBytes), fill(collBytes)
	wantBcast, wantPlanned := clone(bcast), clone(planned)
	piece, wantPiece := make([][]byte, nprocs), make([][]byte, nprocs)
	const vecLen = collBytes / nprocs / 8
	vec := make([][]int64, nprocs)
	wantSum := make([]int64, vecLen)
	for pid := 0; pid < nprocs; pid++ {
		piece[pid] = fill(collBytes / nprocs)
		wantPiece[pid] = clone(piece[pid])
		vec[pid] = make([]int64, vecLen)
		for i := range vec[pid] {
			vec[pid][i] = rng.Int63n(1 << 40)
			wantSum[i] += vec[pid][i]
		}
	}
	xout, xwant := seededPayloads(rng.Int63(), collBytes/(nprocs*nprocs))
	planner := plan.New()

	warm := r.scaled(30, 2)
	err := r.runEngine(engineRun{
		network: "tcp", warm: warm,
		payload: len(collNames) * collBytes,
		op: func(c hbsp.Ctx, pt *pidTrace, n int, done func()) error {
			pid := c.Pid()
			var data, pdata []byte
			if pid == root {
				stamp(bcast, n)
				stamp(planned, n)
				data, pdata = bcast, planned
			}
			stamp(piece[pid], n)
			vec[pid][0] = int64(n)
			outgoing := make(map[int][]byte, nprocs)
			for dst := 0; dst < nprocs; dst++ {
				stamp(xout[pid][dst], n)
				outgoing[dst] = xout[pid][dst]
			}

			pt.begin(collNames[0])
			gotBcast, err := collective.BcastHier(c, data, true)
			pt.end()
			if err != nil {
				return err
			}
			pt.begin(collNames[1])
			gathered, err := collective.GatherHier(c, piece[pid])
			pt.end()
			if err != nil {
				return err
			}
			pt.begin(collNames[2])
			reduced, err := collective.AllReduce(c, vec[pid], collective.Sum)
			pt.end()
			if err != nil {
				return err
			}
			pt.begin(collNames[3])
			incoming, err := collective.TotalExchangeHier(c, outgoing)
			pt.end()
			if err != nil {
				return err
			}
			pt.begin(collNames[4])
			gotPlanned, err := collective.PlannedBcast(c, planner, collBytes, pdata)
			pt.end()
			if err != nil {
				return err
			}
			done()

			op := n - warm
			if !stamped(gotBcast, wantBcast, n) {
				r.fail(op, "pid %d: bcast-hier result differs from the root's data", pid)
			}
			if !stamped(gotPlanned, wantPlanned, n) {
				r.fail(op, "pid %d: planned bcast result differs from the root's data", pid)
			}
			switch {
			case pid != root && gathered != nil:
				r.fail(op, "pid %d: gather-hier returned pieces off the root", pid)
			case pid == root && len(gathered) != nprocs:
				r.fail(op, "gather-hier returned %d pieces, want %d", len(gathered), nprocs)
			case pid == root:
				for src, got := range gathered {
					if src < 0 || src >= nprocs || !stamped(got, wantPiece[src], n) {
						r.fail(op, "gather-hier piece of pid %d differs", src)
					}
				}
			}
			if len(reduced) != vecLen || reduced[0] != int64(nprocs*n) {
				r.fail(op, "pid %d: all-reduce head differs from the sequential sum", pid)
			} else {
				for i := 1; i < vecLen; i++ {
					if reduced[i] != wantSum[i] {
						r.fail(op, "pid %d: all-reduce element %d differs from the sequential sum", pid, i)
						break
					}
				}
			}
			if len(incoming) != nprocs {
				r.fail(op, "pid %d: total exchange returned %d pieces, want %d", pid, len(incoming), nprocs)
			}
			for src, got := range incoming {
				if src < 0 || src >= nprocs || !stamped(got, xwant[src][pid], n) {
					r.fail(op, "pid %d: total exchange piece from %d differs", pid, src)
				}
			}
			return nil
		},
	})
	if err == nil && r.tr != nil {
		l := r.res.Layer
		for _, name := range collNames {
			l[name+"_p50_us"] = median(r.tr.durations(name, 0))
		}
		l["collective.supersteps_per_round"] = l["hbsp.steps_per_op"]
	}
	return err
}
