package collective_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hbspk/internal/catalog"
	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
	"hbspk/internal/pvm"

	// Registers the "unix" and "tcp" wire transports, which the
	// conformance and lifetime lanes pick up from pvm.TransportFactories().
	_ "hbspk/internal/pvm/wiretrans"
)

// The property sweep: every collective of the catalogue
// (internal/catalog), each family also through the planner, and each
// call that roots anywhere also at a drawn root, run on randomized
// machine trees (heights 1–3, mixed r_{i,j}, random fanout) with random
// payload sizes, operators, vector widths and sparse exchanges. Every
// processor checks its own result with its family's oracle. The sweep
// runs under both engines, on reorganized trees, with cuts due inside a
// collective, over every transport, and past the recycling of the frames
// a result arrived in. Seeds derive from fixed bases so failures
// reproduce; every failure message leads with the seed.

// sweepEnv is one fully-determined random scenario, drawn up front so
// program bodies never touch the (non goroutine-safe) rand source.
type sweepEnv struct {
	seed int64
	tr   *model.Tree
	root int // a drawn participant, where the calls that root anywhere root
	in   *catalog.Input
	n    int           // the total bytes the planned calls are priced at
	pl   *plan.Planner // shared by the planned calls
}

func newSweepEnv(seed int64) *sweepEnv {
	rng := rand.New(rand.NewSource(seed))
	tr := model.RandomTree(rng, 3, 3)
	// Bound the processor count so the concurrent engine's goroutine
	// runs stay fast; regeneration is deterministic in the seed.
	for tr.NProcs() > 12 {
		tr = model.RandomTree(rng, 3, 3)
	}
	return sweepEnvOn(seed, rng, tr)
}

// sweepEnvOn draws the rest of a scenario from rng on the given tree.
func sweepEnvOn(seed int64, rng *rand.Rand, tr *model.Tree) *sweepEnv {
	p := tr.NProcs()
	env := &sweepEnv{seed: seed, tr: tr, root: rng.Intn(p), pl: plan.New()}
	in := &catalog.Input{
		Op:    []collective.Op{collective.Sum, collective.Max, collective.Min}[rng.Intn(3)],
		Bytes: make([][]byte, p),
		Vecs:  make([][]int64, p),
		Out:   make([]map[int][]byte, p),
	}
	width := 1 + rng.Intn(6)
	for pid := 0; pid < p; pid++ {
		in.Bytes[pid] = catalog.Payload(pid, 1+rng.Intn(300))
		env.n += len(in.Bytes[pid])
		in.Vecs[pid] = make([]int64, width)
		for i := range in.Vecs[pid] {
			in.Vecs[pid][i] = int64(rng.Intn(2001) - 1000)
		}
		in.Out[pid] = map[int][]byte{}
		for dst := 0; dst < p; dst++ {
			if rng.Intn(4) == 0 {
				continue // sparse: some (src,dst) pairs exchange nothing
			}
			in.Out[pid][dst] = catalog.Payload(pid*131+dst*17, 1+rng.Intn(64))
		}
	}
	env.in = in
	return env
}

// cases are the catalogue's collective entries, then each family through
// the planner: the planner may change the HOW, never the WHAT. The
// planner is shared across cases and engines, so later runs take the
// cached hit path.
func (env *sweepEnv) cases() []catalog.Entry {
	var es, planned []catalog.Entry
	seen := map[string]bool{}
	for _, e := range catalog.Entries() {
		if e.Family == "" {
			continue
		}
		es = append(es, e)
		if pe, ok := catalog.Planned(e.Family, env.pl, env.n); ok && !seen[e.Family] {
			seen[e.Family] = true
			planned = append(planned, pe)
		}
	}
	return append(es, planned...)
}

// calls are the cases, each one that roots anywhere followed by itself
// at the drawn root.
func (env *sweepEnv) calls() []catalog.Entry {
	var es []catalog.Entry
	for _, e := range env.cases() {
		es = append(es, e)
		if at, ok := e.At(env.root); ok {
			es = append(es, at)
		}
	}
	return es
}

// sweep runs every call on the scenario's input as its own program
// through run, and reports each failure with the seed. Every processor
// checks its own result.
func (env *sweepEnv) sweep(t *testing.T, run func(hbsp.Program) error) {
	t.Helper()
	for _, e := range env.calls() {
		if err := run(e.On(env.in)); err != nil {
			t.Errorf("seed=%d %s: %v", env.seed, e.Name, err)
		}
	}
}

var engines = []struct {
	name string
	run  func(tr *model.Tree, p hbsp.Program) error
}{
	{"virtual", func(tr *model.Tree, p hbsp.Program) error {
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), p)
		return err
	}},
	{"concurrent", func(tr *model.Tree, p hbsp.Program) error {
		_, err := hbsp.NewConcurrent(tr).Run(p)
		return err
	}},
}

// TestPropertySweepCollectives is the sweep itself: random trees and
// parameters, both engines. Runs clean under -race; the iteration count
// drops under -short. A fixed-tree lane runs it on the CLI's presets as
// well: the flat testbed, Figure 1's cluster, the grid and the height-4
// chain, and on a single processor.
func TestPropertySweepCollectives(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 2
	}
	const baseSeed = int64(0xC0FFEE)
	for _, nt := range []namedTree{
		{"ucf", model.UCFTestbed()},
		{"figure1", model.Figure1Cluster()},
		{"grid", model.WideAreaGrid(3, 4, 12, 25000, 250000)},
		{"chain", model.DeepChain(4)},
		{"single", model.SingleProcessor()},
	} {
		env := sweepEnvOn(baseSeed, rand.New(rand.NewSource(baseSeed)), nt.tree)
		for _, eng := range engines {
			t.Run(nt.name+"/"+eng.name, func(t *testing.T) {
				env.sweep(t, func(p hbsp.Program) error { return eng.run(env.tr, p) })
			})
		}
	}
	for it := 0; it < iters; it++ {
		seed := baseSeed + int64(it)*7919
		env := newSweepEnv(seed)
		for _, eng := range engines {
			t.Run(fmt.Sprintf("it%d/%s", it, eng.name), func(t *testing.T) {
				t.Logf("seed=%d tree=%s p=%d k=%d root=%d op=%s",
					seed, env.tr.Root.Name, env.tr.NProcs(), env.tr.K(), env.root, env.in.Op.Name)
				env.sweep(t, func(p hbsp.Program) error { return eng.run(env.tr, p) })
			})
		}
	}
}

// slotPidsOf returns leaf pids in slot (child) order — the structural
// layout a reorganization permutes.
func slotPidsOf(tr *model.Tree) []int {
	var out []int
	for _, l := range tr.Root.Leaves() {
		out = append(out, tr.Pid(l))
	}
	return out
}

// shapeSig fingerprints the tree's topology shape: child counts in
// depth-first order. Reorganization must never change it.
func shapeSig(tr *model.Tree) []int {
	var sig []int
	tr.Root.Walk(func(m *model.Machine) { sig = append(sig, len(m.Children)) })
	return sig
}

// TestSweepOnReorganizedTrees is the engine-level half of the reorg
// property test: random trees are rebalanced under randomly skewed
// speed estimates, the shape and leaf multiset are checked invariant,
// and then the sweep runs on both engines.
func TestSweepOnReorganizedTrees(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 1
	}
	const baseSeed = int64(0xD1CE)
	moved := 0
	for it := 0; it < iters; it++ {
		seed := baseSeed + int64(it)*7919
		env := newSweepEnv(seed)
		p := env.tr.NProcs()
		shapeBefore := shapeSig(env.tr)

		// Skew the estimates at random and rebalance in place.
		rng := rand.New(rand.NewSource(seed ^ 0x5EED))
		rer := model.NewReranker(p)
		for pid := 0; pid < p; pid++ {
			for n := 0; n < 3; n++ {
				rer.Observe(pid, 0.1+rng.Float64()*10)
			}
		}
		reorg := model.PlanReorg(env.tr, rer.Estimates(), seed, 1)
		if err := env.tr.Reorganize(reorg); err != nil {
			t.Fatalf("seed=%d: Reorganize: %v", seed, err)
		}
		moved += reorg.Moved

		if got := shapeSig(env.tr); !reflect.DeepEqual(got, shapeBefore) {
			t.Fatalf("seed=%d: reorg changed the topology shape: %v -> %v", seed, shapeBefore, got)
		}
		pids := slotPidsOf(env.tr)
		sort.Ints(pids)
		if !reflect.DeepEqual(pids, env.tr.Root.Pids()) {
			t.Fatalf("seed=%d: reorg lost or duplicated leaves: %v", seed, pids)
		}

		for _, eng := range engines {
			t.Run(fmt.Sprintf("it%d/%s", it, eng.name), func(t *testing.T) {
				env.sweep(t, func(p hbsp.Program) error { return eng.run(env.tr, p) })
			})
		}
	}
	if moved == 0 {
		t.Error("no seed produced a single moved leaf; the skew is not exercising reorg")
	}
}

// laneNames gives three lanes the subtest name of the library call they
// run rather than of its catalogue entry, so that their test IDs hold.
var laneNames = map[string]string{
	"allgather-hier": "all-gather-hier",
	"allreduce":      "all-reduce",
	"alltoall-hier":  "total-exchange-hier",
}

// TestSweepWithCutsDueMidCollective is the reorg sweep's lane for a cut
// that falls due at a global barrier inside a collective. It runs every
// call whose coordinators depend on the layout across several global
// barriers: the hierarchical rows, AllReduce and the calls no row
// prices (the fault-tolerant ones, ft-bcast also at the drawn root, the
// hierarchical exchange and the planner's). On Figure 1's tree, with the fastest leaf straggling
// tenfold and ReorgEvery 1 and 2, on both engines, each case runs three
// rounds behind a charged global Sync — the barrier outside every
// collective where the owed cut lands, so the tree does move between
// rounds — and every round's result must match the oracle on the layout
// it ran on.
func TestSweepWithCutsDueMidCollective(t *testing.T) {
	const seed = int64(0xC07)
	straggler := &fabric.ChaosPlan{Seed: seed, Stragglers: []fabric.Straggler{
		{Pid: 0, FromStep: 0, ToStep: 1 << 20, Factor: 10},
	}}
	var cases []catalog.Entry
	for _, e := range sweepEnvOn(seed, rand.New(rand.NewSource(seed)), model.Figure1Cluster()).calls() {
		if e.Variant == "" || strings.Contains(e.Variant, "Hier") || e.Variant == "AllReduce" {
			cases = append(cases, e)
		}
	}
	for _, engine := range []string{"virtual", "concurrent"} {
		for _, every := range []int{1, 2} {
			for _, e := range cases {
				name := e.Name
				if old, ok := laneNames[name]; ok {
					name = old
				}
				t.Run(fmt.Sprintf("%s/every%d/%s", engine, every, name), func(t *testing.T) {
					tr := model.Figure1Cluster()
					env := sweepEnvOn(seed, rand.New(rand.NewSource(seed)), tr)
					before := slotPidsOf(tr)
					prog := func(c hbsp.Ctx) error {
						for r := 0; r < 3; r++ {
							c.Charge(1000)
							if err := hbsp.SyncAll(c, "round"); err != nil {
								return err
							}
							if _, err := e.Run(c, env.in); err != nil {
								return fmt.Errorf("round %d: %w", r, err)
							}
						}
						return nil
					}
					var err error
					if engine == "virtual" {
						eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
						eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = straggler, every, seed
						_, err = eng.Run(prog)
					} else {
						eng := hbsp.NewConcurrent(tr)
						eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = straggler, every, seed
						_, err = eng.Run(prog)
					}
					if err != nil {
						t.Fatalf("seed=%d: %v", seed, err)
					}
					if reflect.DeepEqual(slotPidsOf(tr), before) {
						t.Fatalf("the layout never moved: the lane is not exercising a cut")
					}
				})
			}
		}
	}
}

// engineOver builds a concurrent engine wired to one registered
// transport; a nil factory New is the in-proc fast path.
func engineOver(tf pvm.TransportFactory, tr *model.Tree) *hbsp.Concurrent {
	eng := hbsp.NewConcurrent(tr)
	if tf.New != nil {
		eng.Transport = tf.New
	}
	return eng
}

// TestTransportConformanceSweep runs the sweep over every registered
// transport, so a transport registered tomorrow is conformance-tested
// automatically. Wire transports run fewer iterations — each engine run
// stands up a real socket pair — but the same oracles apply bit for bit.
func TestTransportConformanceSweep(t *testing.T) {
	const baseSeed = int64(0xFAB41C)
	for _, tf := range pvm.TransportFactories() {
		iters := 3
		if tf.New != nil {
			iters = 2 // socket setup per engine run; keep the wire lanes lean
		}
		if testing.Short() {
			iters = 1
		}
		for it := 0; it < iters; it++ {
			seed := baseSeed + int64(it)*7919
			t.Run(fmt.Sprintf("%s/it%d", tf.Name, it), func(t *testing.T) {
				env := newSweepEnv(seed)
				t.Logf("seed=%d transport=%s tree=%s p=%d root=%d op=%s",
					seed, tf.Name, env.tr.Root.Name, env.tr.NProcs(), env.root, env.in.Op.Name)
				env.sweep(t, func(p hbsp.Program) error {
					_, err := engineOver(tf, env.tr).Run(p)
					return err
				})
			})
		}
	}
}

// churn runs three all-to-all supersteps of fresh random payloads: enough
// for every window a collective was delivered in to be retired (under
// Verify, poisoned) and its wires and frames to carry other bytes.
func churn(c hbsp.Ctx, seed int64) error {
	rng := rand.New(rand.NewSource(seed + int64(c.Pid())))
	for step := 0; step < 3; step++ {
		for dst := 0; dst < c.NProcs(); dst++ {
			p := make([]byte, 1+rng.Intn(512))
			rng.Read(p)
			if err := c.Send(dst, 0, p); err != nil {
				return err
			}
		}
		if err := hbsp.SyncAll(c, "churn"); err != nil {
			return err
		}
	}
	return nil
}

// TestCollectiveResultsOutliveTheirFrames holds every call of the sweep
// to owning its result's bytes: a delivered payload lives two Syncs, so
// one program per tree runs every call, then churns, then checks every
// result again, on Concurrent under Verify, in-proc and over a unix
// socket. Each result outlives the windows of all the calls after it as
// well as the churn. Three random trees have p ≥ 8, so the binomial
// broadcast forwards through three rounds or more, but k ≤ 3. The fourth
// tree, DeepChain(4), has k = 4: there a coordinator keeps a piece of the
// hierarchical exchange across two levels, past the window it was
// delivered in.
func TestCollectiveResultsOutliveTheirFrames(t *testing.T) {
	var envs []*sweepEnv
	seed := int64(0x11FE)
	for ; len(envs) < 3; seed++ {
		if env := newSweepEnv(seed); env.tr.NProcs() >= 8 {
			envs = append(envs, env)
		}
	}
	envs = append(envs, sweepEnvOn(seed, rand.New(rand.NewSource(seed)), model.DeepChain(4)))
	for _, tf := range pvm.TransportFactories() {
		if tf.Name != "inproc" && tf.Name != "unix" {
			continue
		}
		for i, env := range envs {
			t.Run(fmt.Sprintf("%s/tree%d", tf.Name, i), func(t *testing.T) {
				t.Logf("seed=%d tree=%s p=%d k=%d", env.seed, env.tr.Root.Name, env.tr.NProcs(), env.tr.K())
				calls := env.calls()
				eng := engineOver(tf, env.tr)
				eng.Verify = true
				if _, err := eng.Run(func(c hbsp.Ctx) error {
					got := make([]any, len(calls))
					for i, e := range calls {
						var err error
						if got[i], err = e.Run(c, env.in); err != nil {
							return fmt.Errorf("%s: %w", e.Name, err)
						}
					}
					if err := churn(c, env.seed); err != nil {
						return err
					}
					for i, e := range calls {
						if err := e.Check(c, env.in, got[i]); err != nil {
							return fmt.Errorf("after churn: %w", err)
						}
					}
					return nil
				}); err != nil {
					t.Errorf("seed=%d: %v", env.seed, err)
				}
			})
		}
	}
}
