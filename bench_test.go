package hbspk

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper plus ablations of the reproduction's modelling choices. Each
// figure benchmark regenerates its experiment per iteration and reports
// the headline quantity as a custom metric, so `go test -bench=.`
// reproduces the evaluation and times the harness itself.

import (
	"fmt"
	"testing"

	"hbspk/internal/apps"
	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/experiments"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// benchConfig is a reduced sweep so a -bench=. run stays snappy while
// still covering both ends of the paper's ranges.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	return cfg
}

// lastOf returns the final point of the named series.
func lastOf(b *testing.B, res *experiments.Result, name string) float64 {
	b.Helper()
	for _, s := range res.Series {
		if s.Name == name {
			return s.Points[len(s.Points)-1].Y
		}
	}
	b.Fatalf("series %q missing", name)
	return 0
}

func BenchmarkTable1Notation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3aGather(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure3a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(b, res, "p=2"), "improv_p2")
	b.ReportMetric(lastOf(b, res, "p=10"), "improv_p10")
}

func BenchmarkFigure3bGather(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure3b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(b, res, "p=2"), "improv_p2")
	b.ReportMetric(lastOf(b, res, "p=10"), "improv_p10")
}

func BenchmarkFigure4aBroadcast(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure4a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(b, res, "p=10"), "improv_p10")
}

func BenchmarkFigure4bBroadcast(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure4b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(b, res, "p=10"), "improv_p10")
}

func BenchmarkBroadcastCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BroadcastCrossover(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cost.TwoPhaseCrossoverSize(model.UCFTestbed()), "crossover_bytes")
}

func BenchmarkHierarchyPenalty(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.HierarchyPenalty(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastOf(b, res, "figure1"), "penalty_1MB")
}

// --- Microbenchmarks of the moving parts ---

func benchGatherOnce(b *testing.B, tr *model.Tree, cfg fabric.Config, n int) {
	d := cost.BalancedDist(tr, n)
	root := tr.Pid(tr.FastestLeaf())
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hbsp.RunVirtual(tr, cfg, func(c hbsp.Ctx) error {
			return gatherProg(c, root, d)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func gatherProg(c hbsp.Ctx, root int, d cost.Dist) error {
	_, err := Gather(c, c.Tree().Root, root, make([]byte, d[c.Pid()]))
	return err
}

func BenchmarkVirtualEngineGather(b *testing.B) {
	for _, n := range []int{100 * experiments.KB, 1000 * experiments.KB} {
		b.Run(fmt.Sprintf("n=%dKB", n/experiments.KB), func(b *testing.B) {
			benchGatherOnce(b, model.UCFTestbed(), fabric.PVM(), n)
		})
	}
}

func BenchmarkConcurrentEngineGather(b *testing.B) {
	tr := model.UCFTestbed()
	d := cost.BalancedDist(tr, 100*experiments.KB)
	root := tr.Pid(tr.FastestLeaf())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hbsp.NewConcurrent(tr).Run(func(c hbsp.Ctx) error {
			return gatherProg(c, root, d)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of the modelling choices DESIGN.md calls out ---

// AblationPackUnpack: switching off the PVM pack/unpack overheads must
// erase the paper's p=2 anomaly (T_s/T_f rises to ≥ 1).
func BenchmarkAblationPackUnpack(b *testing.B) {
	tr := model.UCFTestbedN(2)
	n := 500 * experiments.KB
	d := cost.EqualDist(tr, n)
	measure := func(cfg fabric.Config) float64 {
		ts, err := hbsp.RunVirtual(tr, cfg, func(c hbsp.Ctx) error {
			return gatherProg(c, tr.Pid(tr.SlowestLeaf()), d)
		})
		if err != nil {
			b.Fatal(err)
		}
		tf, err := hbsp.RunVirtual(tr, cfg, func(c hbsp.Ctx) error {
			return gatherProg(c, tr.Pid(tr.FastestLeaf()), d)
		})
		if err != nil {
			b.Fatal(err)
		}
		return ts.Total / tf.Total
	}
	var withOv, withoutOv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withOv = measure(fabric.PVM())
		withoutOv = measure(fabric.PureModel())
	}
	b.ReportMetric(withOv, "p2_with_overheads")
	b.ReportMetric(withoutOv, "p2_pure_model")
}

// AblationCoordinator: rooting hierarchical gathers at the fastest
// machine (the paper's coordinator rule) vs at an arbitrary slow leaf.
func BenchmarkAblationCoordinatorChoice(b *testing.B) {
	tr := model.UCFTestbed()
	n := 500 * experiments.KB
	d := cost.BalancedDist(tr, n)
	var fast, slow float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			return gatherProg(c, tr.Pid(tr.FastestLeaf()), d)
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			return gatherProg(c, tr.Pid(tr.SlowestLeaf()), d)
		})
		if err != nil {
			b.Fatal(err)
		}
		fast, slow = f.Total, s.Total
	}
	b.ReportMetric(slow/fast, "slowdown_if_misrooted")
}

// AblationEqualVsBalanced: the headline workload-policy comparison on
// the compute-bound reduce (where balance genuinely pays, §4.1).
func BenchmarkAblationEqualVsBalanced(b *testing.B) {
	tr := model.UCFTestbed()
	n := 400 * experiments.KB
	measure := func(d cost.Dist) float64 {
		rep, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			c.Charge(3 * float64(d[c.Pid()])) // heavy local compute ∝ piece
			return gatherProg(c, tr.Pid(tr.FastestLeaf()), d)
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep.Total
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio = measure(cost.EqualDist(tr, n)) / measure(cost.BalancedDist(tr, n))
	}
	b.ReportMetric(ratio, "Tu_over_Tb")
}

// AblationHierVsFlat: hierarchical vs flat reduce on a wide-area grid.
func BenchmarkAblationHierVsFlat(b *testing.B) {
	tr := model.WideAreaGrid(3, 4, 12, 25000, 250000)
	d := cost.EqualDist(tr, 240*experiments.KB)
	var hier, flat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier = cost.ReduceHier(tr, d, cost.OpCost).Total()
		flat = cost.ReduceFlat(tr, tr.Pid(tr.FastestLeaf()), d, cost.OpCost).Total()
	}
	b.ReportMetric(flat/hier, "flat_over_hier")
}

// --- Benches for the extension layers ---

// BenchmarkScanHier measures the two-sweep hierarchical scan.
func BenchmarkScanHier(b *testing.B) {
	tr := model.Figure1Cluster()
	local := make([]int64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			_, err := collective.ScanHier(c, local, SumOp)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulBalanced measures the applications layer with the
// balanced row policy.
func BenchmarkMatMulBalanced(b *testing.B) {
	tr := model.UCFTestbed()
	const m, k, n = 48, 48, 48
	a := make([]float64, m*k)
	bb := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i % 5)
	}
	for i := range bb {
		bb[i] = float64(i % 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			var inA, inB []float64
			if c.Self() == c.Tree().FastestLeaf() {
				inA, inB = a, bb
			}
			_, err := apps.MatMul(c, inA, m, k, inB, n, true)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPerDestRates: the §6 extension's effect on root
// choice — gather time at the scalar-optimal root with and without an
// asymmetric uplink priced in.
func BenchmarkAblationPerDestRates(b *testing.B) {
	tr := model.Figure1Cluster()
	d := cost.BalancedDist(tr, 200*experiments.KB)
	root := tr.Pid(tr.FastestLeaf())
	rt := NewRateTable().Set("LAN", "*", 5)
	var plain, rated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			return gatherProg(c, root, d)
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := hbsp.RunVirtual(tr, fabric.Config{Rates: rt}, func(c hbsp.Ctx) error {
			return gatherProg(c, root, d)
		})
		if err != nil {
			b.Fatal(err)
		}
		plain, rated = p.Total, r.Total
	}
	b.ReportMetric(rated/plain, "rated_over_scalar")
}

// BenchmarkJacobiSweep measures one halo-exchange + relax superstep per
// iteration, the inner loop of the iterative application.
func BenchmarkJacobiSweep(b *testing.B) {
	tr := model.UCFTestbedN(6)
	cfg := JacobiBenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			_, err := apps.Jacobi(c, cfg, func(int) float64 { return -2 })
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// JacobiBenchConfig is a short fixed-sweep configuration.
func JacobiBenchConfig() apps.JacobiConfig {
	return apps.JacobiConfig{Size: 1024, MaxSweeps: 20, Tolerance: 0, CheckEvery: 20, Balanced: true, PointCost: 2}
}

// BenchmarkSpMV measures the nnz-balanced sparse mat-vec.
func BenchmarkSpMV(b *testing.B) {
	tr := model.UCFTestbed()
	m := &apps.CSR{Rows: 400, Cols: 400}
	m.RowPtr = make([]int, 401)
	for i := 0; i < 400; i++ {
		for k := 0; k < 1+(400-i)*6/400; k++ {
			m.ColIdx = append(m.ColIdx, (i*7+k*13)%400)
			m.Val = append(m.Val, 1)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	x := make([]float64, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hbsp.RunVirtual(tr, fabric.PVM(), func(c hbsp.Ctx) error {
			var inM *apps.CSR
			var inX []float64
			if c.Self() == c.Tree().FastestLeaf() {
				inM, inX = m, x
			}
			_, err := apps.SpMV(c, inM, inX, true)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTotalExchangeHier measures coordinator-routed all-to-all
// against the flat exchange in the tiny-message regime.
func BenchmarkTotalExchangeHier(b *testing.B) {
	tr := model.WideAreaGrid(3, 6, 15, 25000, 250000)
	p := tr.NProcs()
	cfg := fabric.PVM()
	cfg.MsgOverhead = 8000
	cfg.CombineMessages = true
	var flat, hier float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure := func(h bool) float64 {
			rep, err := hbsp.RunVirtual(tr, cfg, func(c hbsp.Ctx) error {
				out := make(map[int][]byte, p)
				for dst := 0; dst < p; dst++ {
					out[dst] = make([]byte, 16)
				}
				var err error
				if h {
					_, err = collective.TotalExchangeHier(c, out)
				} else {
					_, err = TotalExchange(c, c.Tree().Root, out)
				}
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			return rep.Total
		}
		flat, hier = measure(false), measure(true)
	}
	b.ReportMetric(flat/hier, "flat_over_hier")
}
