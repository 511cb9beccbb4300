package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// The property sweep: every collective in the library, run on randomized
// machine trees (heights 1–3, mixed r_{i,j}, random fanout), with random
// roots, payload sizes, operators and vector widths, checked against a
// naive sequential oracle — under both engines. Seeds are derived from a
// fixed base so failures reproduce; every failure message leads with the
// seed.

// sweepEnv is one fully-determined random scenario. Everything is
// materialized up front so program bodies never touch the (non
// goroutine-safe) rand source.
type sweepEnv struct {
	seed     int64
	tr       *model.Tree
	p        int
	root     int // random participant, for rooted flat collectives
	op       Op
	width    int
	sizes    []int
	payloads [][]byte         // per-pid byte payloads
	vecs     [][]int64        // per-pid reduction vectors
	outgoing []map[int][]byte // per-src total-exchange pieces
	pl       *plan.Planner    // shared by the planned-* cases
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
	env := &sweepEnv{
		seed:  seed,
		tr:    tr,
		p:     p,
		root:  rng.Intn(p),
		op:    []Op{Sum, Max, Min}[rng.Intn(3)],
		width: 1 + rng.Intn(6),
		pl:    plan.New(),
	}
	env.sizes = make([]int, p)
	env.payloads = make([][]byte, p)
	env.vecs = make([][]int64, p)
	env.outgoing = make([]map[int][]byte, p)
	for pid := 0; pid < p; pid++ {
		env.sizes[pid] = 1 + rng.Intn(300)
		env.payloads[pid] = payloadFor(pid, env.sizes[pid])
		vec := make([]int64, env.width)
		for i := range vec {
			vec[i] = int64(rng.Intn(2001) - 1000)
		}
		env.vecs[pid] = vec
		out := map[int][]byte{}
		for dst := 0; dst < p; dst++ {
			if rng.Intn(4) == 0 {
				continue // sparse: some (src,dst) pairs exchange nothing
			}
			out[dst] = payloadFor(pid*131+dst*17, 1+rng.Intn(64))
		}
		env.outgoing[pid] = out
	}
	return env
}

// fold applies the op element-wise left to right over the pids' vectors.
func (env *sweepEnv) fold(pids []int) []int64 {
	acc := append([]int64(nil), env.vecs[pids[0]]...)
	for _, pid := range pids[1:] {
		for i := range acc {
			acc[i] = env.op.Apply(acc[i], env.vecs[pid][i])
		}
	}
	return acc
}

// allPids is 0..p-1 — participants(scope=Root) in pid order.
func (env *sweepEnv) allPids() []int {
	pids := make([]int, env.p)
	for i := range pids {
		pids[i] = i
	}
	return pids
}

// gatherOracle is what a completed gather (or any pid's all-gather)
// must hold.
func (env *sweepEnv) gatherOracle() map[int][]byte {
	m := make(map[int][]byte, env.p)
	for pid := 0; pid < env.p; pid++ {
		m[pid] = env.payloads[pid]
	}
	return m
}

// totalBytes is the machine-wide payload size: the uniform n the
// planned byte collectives take.
func (env *sweepEnv) totalBytes() int {
	n := 0
	for _, s := range env.sizes {
		n += s
	}
	return n
}

// exchangeBytes is the machine-wide total-exchange traffic.
func (env *sweepEnv) exchangeBytes() int {
	n := 0
	for _, out := range env.outgoing {
		n += mapBytes(out)
	}
	return n
}

// exchangeOracle transposes outgoing: what dst must end up holding.
func (env *sweepEnv) exchangeOracle(dst int) map[int][]byte {
	in := map[int][]byte{}
	for src := 0; src < env.p; src++ {
		if piece, ok := env.outgoing[src][dst]; ok {
			in[src] = piece
		}
	}
	return in
}

// sweepSlots stores per-pid results under a lock (the concurrent engine
// writes from p goroutines).
type sweepSlots struct {
	mu sync.Mutex
	bs [][]byte
	ms []map[int][]byte
	vs [][]int64
}

func newSlots(p int) *sweepSlots {
	return &sweepSlots{bs: make([][]byte, p), ms: make([]map[int][]byte, p), vs: make([][]int64, p)}
}

func (s *sweepSlots) setB(pid int, b []byte) {
	s.mu.Lock()
	s.bs[pid] = b
	s.mu.Unlock()
}

func (s *sweepSlots) setM(pid int, m map[int][]byte) {
	s.mu.Lock()
	s.ms[pid] = m
	s.mu.Unlock()
}

func (s *sweepSlots) setV(pid int, v []int64) {
	s.mu.Lock()
	s.vs[pid] = v
	s.mu.Unlock()
}

// checkers — all report with the seed so failures reproduce.

func checkBytes(t *testing.T, env *sweepEnv, what string, pid int, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("seed=%d %s: pid %d got %d bytes, want %d (payload mismatch)", env.seed, what, pid, len(got), len(want))
	}
}

func checkMap(t *testing.T, env *sweepEnv, what string, pid int, got, want map[int][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("seed=%d %s: pid %d holds %d pieces, want %d", env.seed, what, pid, len(got), len(want))
		return
	}
	for src, w := range want {
		if !bytes.Equal(got[src], w) {
			t.Errorf("seed=%d %s: pid %d piece from %d corrupted", env.seed, what, pid, src)
		}
	}
}

func checkVec(t *testing.T, env *sweepEnv, what string, pid int, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("seed=%d %s: pid %d vector width %d, want %d", env.seed, what, pid, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed=%d %s: pid %d element %d = %d, want %d (op %s)", env.seed, what, pid, i, got[i], want[i], env.op.Name)
			return
		}
	}
}

// sweepCase is one collective under test: the program body each
// processor runs, and the oracle check over the collected slots.
type sweepCase struct {
	name  string
	run   func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error
	check func(t *testing.T, env *sweepEnv, s *sweepSlots)
}

func sweepCases() []sweepCase {
	return []sweepCase{
		{
			name: "gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := Gather(c, c.Tree().Root, env.root, env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				checkMap(t, env, "gather", env.root, s.ms[env.root], env.gatherOracle())
				for pid := 0; pid < env.p; pid++ {
					if pid != env.root && s.ms[pid] != nil {
						t.Errorf("seed=%d gather: non-root pid %d returned a map", env.seed, pid)
					}
				}
			},
		},
		{
			name: "gather-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := GatherHier(c, env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				root := env.tr.Pid(env.tr.FastestLeaf())
				checkMap(t, env, "gather-hier", root, s.ms[root], env.gatherOracle())
			},
		},
		{
			name: "scatter",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var pieces map[int][]byte
				if c.Pid() == env.root {
					pieces = env.gatherOracle()
				}
				out, err := Scatter(c, c.Tree().Root, env.root, pieces)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "scatter", pid, s.bs[pid], env.payloads[pid])
				}
			},
		},
		{
			name: "scatter-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var pieces map[int][]byte
				if c.Self() == c.Tree().FastestLeaf() {
					pieces = env.gatherOracle()
				}
				out, err := ScatterHier(c, pieces)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "scatter-hier", pid, s.bs[pid], env.payloads[pid])
				}
			},
		},
		{
			name: "bcast-one-phase",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Pid() == env.root {
					in = env.payloads[env.root]
				}
				out, err := BcastOnePhase(c, c.Tree().Root, env.root, in)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "bcast-one-phase", pid, s.bs[pid], env.payloads[env.root])
				}
			},
		},
		{
			name: "bcast-two-phase",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Pid() == env.root {
					in = env.payloads[env.root]
				}
				out, err := BcastTwoPhase(c, c.Tree().Root, env.root, in, nil)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "bcast-two-phase", pid, s.bs[pid], env.payloads[env.root])
				}
			},
		},
		{
			name: "bcast-binomial",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Pid() == env.root {
					in = env.payloads[env.root]
				}
				out, err := BcastBinomial(c, c.Tree().Root, env.root, in)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "bcast-binomial", pid, s.bs[pid], env.payloads[env.root])
				}
			},
		},
		{
			name: "bcast-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Self() == c.Tree().FastestLeaf() {
					in = env.payloads[0]
				}
				out, err := BcastHier(c, in, env.seed%2 == 0)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "bcast-hier", pid, s.bs[pid], env.payloads[0])
				}
			},
		},
		{
			name: "all-gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := AllGather(c, c.Tree().Root, env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "all-gather", pid, s.ms[pid], env.gatherOracle())
				}
			},
		},
		{
			name: "all-gather-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := AllGatherHier(c, env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "all-gather-hier", pid, s.ms[pid], env.gatherOracle())
				}
			},
		},
		{
			name: "total-exchange",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := TotalExchange(c, c.Tree().Root, env.outgoing[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "total-exchange", pid, s.ms[pid], env.exchangeOracle(pid))
				}
			},
		},
		{
			name: "total-exchange-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := TotalExchangeHier(c, env.outgoing[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "total-exchange-hier", pid, s.ms[pid], env.exchangeOracle(pid))
				}
			},
		},
		{
			name: "reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := Reduce(c, c.Tree().Root, env.root, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				checkVec(t, env, "reduce", env.root, s.vs[env.root], env.fold(env.allPids()))
				for pid := 0; pid < env.p; pid++ {
					if pid != env.root && s.vs[pid] != nil {
						t.Errorf("seed=%d reduce: non-root pid %d returned a vector", env.seed, pid)
					}
				}
			},
		},
		{
			name: "reduce-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := ReduceHier(c, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				root := env.tr.Pid(env.tr.FastestLeaf())
				checkVec(t, env, "reduce-hier", root, s.vs[root], env.fold(env.allPids()))
			},
		},
		{
			name: "all-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := AllReduce(c, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				want := env.fold(env.allPids())
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "all-reduce", pid, s.vs[pid], want)
				}
			},
		},
		{
			name: "scan",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := Scan(c, c.Tree().Root, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "scan", pid, s.vs[pid], env.fold(env.allPids()[:pid+1]))
				}
			},
		},
		{
			name: "scan-hier",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := ScanHier(c, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				// ScanHier's prefix order is the tree's depth-first machine
				// order: pid order on a fresh tree, layout order after a
				// reorganization.
				order := slotPidsOf(env.tr)
				for pos, pid := range order {
					checkVec(t, env, "scan-hier", pid, s.vs[pid], env.fold(order[:pos+1]))
				}
			},
		},
		{
			name: "reduce-scatter",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				// Widen the vector to p elements minimum so every
				// participant owns at least zero-or-more elements; use a
				// deterministic widened copy of the pid's vector.
				local := widened(env, c.Pid())
				d := EqualPieces(c, c.Tree().Root, len(local))
				out, err := ReduceScatter(c, c.Tree().Root, local, d, env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				// Oracle: element-wise fold of the widened vectors, then
				// the EqualPieces segmentation.
				n := widenedLen(env)
				acc := widened(env, 0)
				for pid := 1; pid < env.p; pid++ {
					v := widened(env, pid)
					for i := range acc {
						acc[i] = env.op.Apply(acc[i], v[i])
					}
				}
				q, r := n/env.p, n%env.p
				off := 0
				for pid := 0; pid < env.p; pid++ {
					sz := q
					if pid < r {
						sz++
					}
					checkVec(t, env, "reduce-scatter", pid, s.vs[pid], acc[off:off+sz])
					off += sz
				}
			},
		},
		// Planner-dispatched collectives: whatever variant the planner
		// resolves, the result must match the same sequential oracles as
		// the fixed variants — the planner may change the HOW, never the
		// WHAT. The planner is shared across cases and engines, so later
		// runs exercise the cached hit path.
		{
			name: "planned-bcast",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var in []byte
				if c.Self() == c.Tree().FastestLeaf() {
					in = env.payloads[0]
				}
				out, err := PlannedBcast(c, env.pl, env.sizes[0], in)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "planned-bcast", pid, s.bs[pid], env.payloads[0])
				}
			},
		},
		{
			name: "planned-gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedGather(c, env.pl, env.totalBytes(), env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				root := env.tr.Pid(env.tr.FastestLeaf())
				checkMap(t, env, "planned-gather", root, s.ms[root], env.gatherOracle())
			},
		},
		{
			name: "planned-scatter",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				var pieces map[int][]byte
				if c.Self() == c.Tree().FastestLeaf() {
					pieces = env.gatherOracle()
				}
				out, err := PlannedScatter(c, env.pl, env.totalBytes(), pieces)
				s.setB(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkBytes(t, env, "planned-scatter", pid, s.bs[pid], env.payloads[pid])
				}
			},
		},
		{
			name: "planned-all-gather",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedAllGather(c, env.pl, env.totalBytes(), env.payloads[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "planned-all-gather", pid, s.ms[pid], env.gatherOracle())
				}
			},
		},
		{
			name: "planned-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedReduce(c, env.pl, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				root := env.tr.Pid(env.tr.FastestLeaf())
				checkVec(t, env, "planned-reduce", root, s.vs[root], env.fold(env.allPids()))
			},
		},
		{
			name: "planned-all-reduce",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedAllReduce(c, env.pl, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				want := env.fold(env.allPids())
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "planned-all-reduce", pid, s.vs[pid], want)
				}
			},
		},
		{
			name: "planned-scan",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedScan(c, env.pl, env.vecs[c.Pid()], env.op)
				s.setV(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				// The tree is freshly built, so slot order == pid order and
				// both eligible variants yield the pid-order prefix.
				for pid := 0; pid < env.p; pid++ {
					checkVec(t, env, "planned-scan", pid, s.vs[pid], env.fold(env.allPids()[:pid+1]))
				}
			},
		},
		{
			name: "planned-total-exchange",
			run: func(c hbsp.Ctx, env *sweepEnv, s *sweepSlots) error {
				out, err := PlannedTotalExchange(c, env.pl, env.exchangeBytes(), env.outgoing[c.Pid()])
				s.setM(c.Pid(), out)
				return err
			},
			check: func(t *testing.T, env *sweepEnv, s *sweepSlots) {
				for pid := 0; pid < env.p; pid++ {
					checkMap(t, env, "planned-total-exchange", pid, s.ms[pid], env.exchangeOracle(pid))
				}
			},
		},
	}
}

// widened returns pid's reduction vector repeated to cover at least one
// element per participant (deterministic, no shared state).
func widenedLen(env *sweepEnv) int {
	n := env.width
	for n < env.p {
		n += env.width
	}
	return n
}

func widened(env *sweepEnv, pid int) []int64 {
	n := widenedLen(env)
	out := make([]int64, n)
	for i := range out {
		out[i] = env.vecs[pid][i%env.width]
	}
	return out
}

// TestPropertySweepCollectives is the satellite sweep: every collective,
// random trees and parameters, both engines, oracle-checked. Runs clean
// under -race; iteration count drops under -short.
func TestPropertySweepCollectives(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 2
	}
	engines := []struct {
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
	const baseSeed = int64(0xC0FFEE)
	for it := 0; it < iters; it++ {
		seed := baseSeed + int64(it)*7919
		env := newSweepEnv(seed)
		for _, eng := range engines {
			eng := eng
			t.Run(fmt.Sprintf("it%d/%s", it, eng.name), func(t *testing.T) {
				t.Logf("seed=%d tree=%s p=%d k=%d root=%d op=%s width=%d",
					seed, env.tr.Root.Name, env.p, env.tr.K(), env.root, env.op.Name, env.width)
				for _, tc := range sweepCases() {
					s := newSlots(env.p)
					if err := eng.run(env.tr, func(c hbsp.Ctx) error {
						return tc.run(c, env, s)
					}); err != nil {
						t.Errorf("seed=%d %s: run failed: %v", seed, tc.name, err)
						continue
					}
					tc.check(t, env, s)
				}
			})
		}
	}
}
