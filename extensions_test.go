package hbspk

import (
	"math"
	"sync"
	"testing"

	"hbspk/internal/apps"
	"hbspk/internal/collective"
	"hbspk/internal/model"
)

func TestPublicRateTableChangesGatherCost(t *testing.T) {
	tree := Figure1Cluster()
	dist := BalancedDist(tree, 200000)
	root := tree.Pid(tree.FastestLeaf())
	measure := func(cfg FabricConfig) float64 {
		rep, err := Run(tree, cfg, func(c Ctx) error {
			_, err := Gather(c, c.Tree().Root, root, make([]byte, dist[c.Pid()]))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	plain := measure(PureModelFabric())
	rated := measure(WithRates(PureModelFabric(), NewRateTable().Set("LAN", "*", 4)))
	if rated <= plain {
		t.Errorf("pricing the LAN uplink should raise the cost: %v vs %v", rated, plain)
	}
}

func TestPublicMsgOverhead(t *testing.T) {
	tree := model.UCFTestbedN(4)
	prog := func(c Ctx) error {
		_, err := collective.AllGather(c, c.Tree().Root, make([]byte, 5000))
		return err
	}
	base, err := Run(tree, PureModelFabric(), prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PureModelFabric()
	cfg.MsgOverhead = 1000
	over, err := Run(tree, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if over.Total <= base.Total {
		t.Errorf("per-message overhead should slow the all-gather: %v vs %v", over.Total, base.Total)
	}
}

func TestPublicHierCollectives(t *testing.T) {
	tree := Figure1Cluster()
	p := tree.NProcs()
	scans := make([]int64, p)
	var hist []int64
	var mu sync.Mutex
	_, err := Run(tree, PVMFabric(), func(c Ctx) error {
		out, err := collective.ScanHier(c, []int64{1}, SumOp)
		if err != nil {
			return err
		}
		scans[c.Pid()] = out[0]
		all, err := collective.AllGatherHier(c, []byte{byte(c.Pid())})
		if err != nil {
			return err
		}
		if len(all) != p {
			t.Errorf("pid %d: allgather-hier %d pieces", c.Pid(), len(all))
		}
		h, err := apps.Histogram(c, []byte{byte(c.Pid() * 16)}, 16)
		if err != nil {
			return err
		}
		mu.Lock()
		hist = h
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range scans {
		if v != int64(pid+1) {
			t.Errorf("scan[%d] = %d, want %d", pid, v, pid+1)
		}
	}
	total := int64(0)
	for _, v := range hist {
		total += v
	}
	if total != int64(p) {
		t.Errorf("histogram total = %d, want %d", total, p)
	}
}

func TestPublicReduceScatter(t *testing.T) {
	tree := model.UCFTestbedN(4)
	d := PieceDist{1, 1, 1, 1}
	got := make([]int64, 4)
	_, err := Run(tree, PureModelFabric(), func(c Ctx) error {
		local := []int64{1, 2, 3, 4}
		out, err := collective.ReduceScatter(c, c.Tree().Root, local, d, SumOp)
		if err != nil {
			return err
		}
		got[c.Pid()] = out[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range got {
		if v != int64(4*(pid+1)) {
			t.Errorf("segment[%d] = %d, want %d", pid, v, 4*(pid+1))
		}
	}
}

func TestPublicMatVec(t *testing.T) {
	tree := model.UCFTestbedN(5)
	m, n := 8, 6
	a := make([]float64, m*n)
	x := make([]float64, n)
	for i := range a {
		a[i] = float64(i % 7)
	}
	for j := range x {
		x[j] = float64(j + 1)
	}
	var y []float64
	var mu sync.Mutex
	_, err := Run(tree, PureModelFabric(), func(c Ctx) error {
		var inA, inX []float64
		if c.Self() == c.Tree().FastestLeaf() {
			inA, inX = a, x
		}
		out, err := apps.MatVec(c, inA, m, n, inX, true)
		if out != nil {
			mu.Lock()
			y = out
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += a[i*n+j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-9 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestPublicTimelineAvailable(t *testing.T) {
	tree := model.UCFTestbedN(3)
	rep, err := Run(tree, PVMFabric(), func(c Ctx) error {
		return c.Sync(c.Tree().Root, "only")
	})
	if err != nil {
		t.Fatal(err)
	}
	if tl := rep.Timeline(80); len(tl) < 10 {
		t.Errorf("timeline too short: %q", tl)
	}
}
