package hbspk

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/testutil"
)

// The public-API tests exercise the same flows the examples use, so the
// documented entry points cannot rot.

func TestPublicQuickstartFlow(t *testing.T) {
	root := NewCluster("lan", []*Machine{
		NewLeaf("fast", WithComm(1), WithComp(1)),
		NewLeaf("slow", WithComm(1.3), WithComp(2)),
	}, WithSync(1000))
	tree := MustNew(root, 1).Normalize()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	var got map[int][]byte
	var mu sync.Mutex
	rep, err := Run(tree, PVMFabric(), func(c Ctx) error {
		out, err := Gather(c, c.Tree().Root, 0, []byte{byte(c.Pid())})
		if out != nil {
			mu.Lock()
			got = out
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || rep.Supersteps() != 1 {
		t.Fatalf("gather result %v in %d steps", got, rep.Supersteps())
	}
}

func TestPublicPresetsValidate(t *testing.T) {
	for name, tr := range map[string]*Tree{
		"ucf":      UCFTestbed(),
		"figure1":  Figure1Cluster(),
		"wan-grid": WideAreaGrid(2, 3, 10, 100, 1000),
	} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicPredictionMatchesRun(t *testing.T) {
	tree := UCFTestbed()
	n := 200000
	d := BalancedDist(tree, n)
	root := tree.Pid(tree.FastestLeaf())
	rep, err := Run(tree, PureModelFabric(), func(c Ctx) error {
		_, err := Gather(c, c.Tree().Root, root, make([]byte, d[c.Pid()]))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := PredictGather(tree, root, d).Total()
	if math.Abs(rep.Total-want) > 1e-6 {
		t.Errorf("run %v != prediction %v", rep.Total, want)
	}
}

func TestPublicAllReduceAcrossEngines(t *testing.T) {
	tree := Figure1Cluster()
	prog := func(out []int64) Program {
		return func(c Ctx) error {
			v, err := AllReduce(c, []int64{int64(c.Pid() + 1)}, SumOp)
			if err != nil {
				return err
			}
			out[c.Pid()] = v[0]
			return nil
		}
	}
	p := tree.NProcs()
	want := int64(p * (p + 1) / 2)
	virt := make([]int64, p)
	if _, err := Run(tree, PureModelFabric(), prog(virt)); err != nil {
		t.Fatal(err)
	}
	conc := make([]int64, p)
	if _, err := RunConcurrent(tree, prog(conc)); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < p; pid++ {
		if virt[pid] != want || conc[pid] != want {
			t.Errorf("pid %d: virtual %d concurrent %d want %d", pid, virt[pid], conc[pid], want)
		}
	}
}

func TestPublicBroadcastVariantsAgree(t *testing.T) {
	tree := model.UCFTestbedN(6)
	data := bytes.Repeat([]byte{9, 8, 7}, 999)
	root := tree.Pid(tree.FastestLeaf())
	for _, variant := range []string{"one", "two", "hier"} {
		results := make([][]byte, tree.NProcs())
		_, err := Run(tree, PVMFabric(), func(c Ctx) error {
			var in []byte
			if c.Pid() == root {
				in = data
			}
			var out []byte
			var err error
			switch variant {
			case "one":
				out, err = collective.BcastOnePhase(c, c.Tree().Root, root, in)
			case "two":
				out, err = BcastTwoPhase(c, c.Tree().Root, root, in, nil)
			case "hier":
				out, err = BcastHier(c, in, false)
			}
			results[c.Pid()] = out
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		for pid, r := range results {
			if !bytes.Equal(r, data) {
				t.Errorf("%s: pid %d wrong data", variant, pid)
			}
		}
	}
}

func TestPublicCrossoverFiniteOnTestbed(t *testing.T) {
	if n := TwoPhaseCrossoverSize(UCFTestbed()); math.IsInf(n, 1) || n <= 0 {
		t.Errorf("crossover = %v", n)
	}
}

func TestPublicPlannedCollectives(t *testing.T) {
	tr := UCFTestbed()
	pl := NewPlanner()
	root := tr.Pid(tr.FastestLeaf())
	data := bytes.Repeat([]byte{42}, 4096)
	rep, err := Run(tr, PureModelFabric(), func(c Ctx) error {
		var in []byte
		if c.Pid() == root {
			in = data
		}
		out, err := PlannedBcast(c, pl, len(data), in)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, data) {
			t.Errorf("pid %d: planned bcast wrong data", c.Pid())
		}
		sum, err := collective.PlannedAllReduce(c, pl, []int64{int64(c.Pid()), 1}, SumOp)
		if err != nil {
			return err
		}
		p := int64(c.NProcs())
		if want := p * (p - 1) / 2; sum[0] != want || sum[1] != p {
			t.Errorf("pid %d: planned allreduce = %v", c.Pid(), sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 {
		t.Error("no virtual time charged")
	}
	st := pl.Stats()
	if st.Misses != 2 || st.Hits == 0 {
		t.Errorf("planner stats = %+v, want 2 misses and some hits", st)
	}
	if len(pl.Decisions()) != 2 {
		t.Errorf("decision cache = %v", pl.Decisions())
	}
}

// TestRunValidatesTheTree: both engines, and the facade over them,
// refuse a tree that fails Validate before any processor starts, and
// leave no goroutine behind.
func TestRunValidatesTheTree(t *testing.T) {
	pair := func(opts ...Option) *Machine {
		return NewCluster("lan", []*Machine{NewLeaf("a", WithComm(2)), NewLeaf("b", opts...)})
	}
	trees := []struct {
		name, want string
		tree       func() *Tree
	}{
		{"not normalized", "call Normalize", func() *Tree { return MustNew(pair(WithComm(3)), 1) }},
		{"comm 0", "invalid r = 0", func() *Tree { return MustNew(pair(WithComm(0)), 1) }},
		{"share 1.5", "invalid c = 1.5", func() *Tree { return MustNew(pair(model.WithShare(1.5)), 1) }},
		{"sync -1", "invalid L = -1", func() *Tree { return MustNew(pair(WithSync(-1)), 1) }},
	}
	runs := []struct {
		name string
		run  func(*Tree, Program) (*Report, error)
	}{
		{"Virtual", func(tr *Tree, prog Program) (*Report, error) {
			return hbsp.NewVirtual(tr, fabric.New(tr, fabric.PVM())).Run(prog)
		}},
		{"Concurrent", func(tr *Tree, prog Program) (*Report, error) { return hbsp.NewConcurrent(tr).Run(prog) }},
		{"hbspk.Run", func(tr *Tree, prog Program) (*Report, error) { return Run(tr, PVMFabric(), prog) }},
		{"hbspk.RunConcurrent", RunConcurrent},
	}
	for _, tc := range trees {
		for _, r := range runs {
			t.Run(tc.name+"/"+r.name, func(t *testing.T) {
				testutil.CheckGoroutines(t)
				tr := tc.tree()
				want := tr.Validate()
				if want == nil || !strings.Contains(want.Error(), tc.want) {
					t.Fatalf("Validate = %v, want an error naming %q", want, tc.want)
				}
				var started atomic.Bool
				rep, err := r.run(tr, func(c Ctx) error {
					started.Store(true)
					return hbsp.SyncAll(c, "step")
				})
				if err == nil || err.Error() != want.Error() || rep != nil {
					t.Errorf("Run = (%v, %v), want (nil, %v)", rep, err, want)
				}
				if started.Load() {
					t.Error("a processor started on a tree that fails Validate")
				}
			})
		}
	}
}
