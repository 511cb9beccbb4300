package plan_test

// The planner's two gates, as tests on the deterministic Virtual engine
// (TestPlannerWithinBestFixed, TestPlannedDispatchWithinDirect), and the
// benchmark of its cache hit path (BenchmarkDecideHit, the path the
// ladder's plan.decide_hit_ns reads).

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// runModelCost runs prog on a fresh virtual engine over tr with the
// pure cost-model fabric and returns the finishing virtual time.
func runModelCost(tb testing.TB, tr *model.Tree, pl *plan.Planner, prog hbsp.Program) float64 {
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	if pl != nil {
		eng.Plan = pl
	}
	rep, err := eng.Run(prog)
	if err != nil {
		tb.Fatalf("run: %v", err)
	}
	return rep.Total
}

// directDispatch invokes one fixed collective variant by its cost-table
// name, mirroring the planner dispatcher's own switch.
func directDispatch(c hbsp.Ctx, variant string, n int, data []byte, local []byte) error {
	t := c.Tree()
	root := t.Pid(t.FastestLeaf())
	var err error
	switch variant {
	case "BcastOnePhase":
		_, err = collective.BcastOnePhase(c, t.Root, root, data)
	case "BcastTwoPhase":
		var dist collective.Dist
		if c.Pid() == root {
			dist = collective.BalancedPieces(c, t.Root, n)
		}
		_, err = collective.BcastTwoPhase(c, t.Root, root, data, dist)
	case "BcastBinomial":
		_, err = collective.BcastBinomial(c, t.Root, root, data)
	case "BcastHier":
		_, err = collective.BcastHier(c, data, false)
	case "BcastHierTwoPhase":
		_, err = collective.BcastHier(c, data, true)
	case "Gather":
		_, err = collective.Gather(c, t.Root, root, local)
	case "GatherHier":
		_, err = collective.GatherHier(c, local)
	default:
		err = fmt.Errorf("unknown variant %q", variant)
	}
	return err
}

// sweepProg returns a program performing one collective of the family
// at n total bytes: through the planner when pl is non-nil, through the
// fixed variant otherwise.
func sweepProg(family, variant string, pl *plan.Planner, n, procs int) hbsp.Program {
	return func(c hbsp.Ctx) error {
		t := c.Tree()
		root := t.Pid(t.FastestLeaf())
		var data []byte
		if family == "bcast" && c.Pid() == root {
			data = bytes.Repeat([]byte{1}, n)
		}
		local := bytes.Repeat([]byte{byte(c.Pid())}, n/procs)
		if pl != nil {
			var err error
			switch family {
			case "bcast":
				_, err = collective.PlannedBcast(c, pl, n, data)
			case "gather":
				_, err = collective.PlannedGather(c, pl, (n/procs)*procs, local)
			}
			return err
		}
		if family == "gather" {
			return directDispatch(c, variant, n, nil, local)
		}
		return directDispatch(c, variant, n, data, nil)
	}
}

// TestPlannerWithinBestFixed runs a payload × tree grid of broadcasts and
// gathers under every fixed variant and under the converged auto-tuned
// planner, and demands the planner's modeled cost (the virtual engine's
// finishing time, PureModel fabric) stay ≤ 1.001 × the best fixed variant
// in each of the 24 cells: beating the best fixed variant everywhere
// means beating every fixed-variant baseline everywhere. The 0.1%
// headroom exists for corrected near-ties: the flip hysteresis
// (FlipMargin) lets the planner rest on a variant measurably tied with
// the best, and one grid cell sits 0.01% over for exactly that reason.
//
// Grid sizes are bucket representatives (3·2^(b-2)), the sizes the
// planner prices decisions at — a size elsewhere in a bucket can
// legitimately straddle a switchpoint the bucket's representative is on
// the other side of, which is bucketing granularity, not a planner
// defect.
func TestPlannerWithinBestFixed(t *testing.T) {
	trees := []struct {
		name  string
		build func() *model.Tree
	}{
		{"figure1", model.Figure1Cluster},
		{"ucf8", func() *model.Tree { return model.UCFTestbedN(8) }},
		{"rand3x4", func() *model.Tree { return model.RandomTree(rand.New(rand.NewSource(7)), 3, 4) }},
	}
	sizes := []int{3 << 8, 3 << 12, 3 << 16, 3 << 18} // bucket representatives
	cells := 0
	for _, family := range []string{"bcast", "gather"} {
		for _, tc := range trees {
			for _, n := range sizes {
				cells++
				t.Run(fmt.Sprintf("%s/%s/n%d", family, tc.name, n), func(t *testing.T) {
					tr := tc.build()
					procs := tr.NProcs()
					best := 0.0
					for i, v := range plan.VariantsFor(family) {
						total := runModelCost(t, tr, nil, sweepProg(family, v.Name, nil, n, procs))
						if i == 0 || total < best {
							best = total
						}
					}
					// Run until the refinement loop converges. A run's
					// observations publish at the NEXT run's first quiescent
					// point — after that run has already dispatched — so a
					// closed-form misordering takes a few runs to correct:
					// trial the challenger, measure it, re-rank. On the
					// deterministic virtual engine the trajectory is exact,
					// so "same total twice with no new flip" means settled.
					pl := plan.New()
					total, flips, settled := -1.0, int64(-1), false
					for i := 0; i < 16 && !settled; i++ {
						tot := runModelCost(t, tr, pl, sweepProg(family, "", pl, n, procs))
						f := pl.Stats().Flips
						settled = tot == total && f == flips
						total, flips = tot, f
					}
					if !settled {
						t.Fatalf("planner did not settle in 16 runs: last total %.0f after %d flips", total, flips)
					}
					if total > 1.001*best {
						t.Errorf("planner modeled cost %.0f, best fixed variant %.0f: ratio %.5f over 1.001",
							total, best, total/best)
					}
				})
			}
		}
	}
	if cells != 24 {
		t.Fatalf("the grid has %d cells, want 24 (2 families × 3 trees × 4 sizes)", cells)
	}
}

// TestPlannedDispatchWithinDirect holds the planner's dispatch layer to
// 5% of a direct call, on allocations and on time. The planner path and
// the direct path differ only by the decision-cache lookup and the
// feedback observer. The engine's plan hook stays unset so no commit can
// flip the pick mid-run — the pair must dispatch the identical variant
// for the delta to be the dispatch overhead and not a variant change.
//
// Allocations per op are deterministic, so one run of each whole path
// measures them exactly: an overhead regression that allocates cannot
// hide from it.
//
// The time overhead is (direct + layer) / direct, both measured in the
// same engine run: direct is the per-op wall time of the variant call,
// and layer is the per-op wall time of the code the planner path ADDS
// around it — the decision lookup, clock reads and the feedback
// observation, measured in a tight loop on processor 0. Measuring the
// addend directly instead of differencing two whole-path timings is what
// makes the assertion trustworthy on a noisy machine: the layer (well
// under a microsecond) and the variant call (~100µs) differ by two
// orders of magnitude, so no plausible wall-clock noise can fake a 5%
// overhead — whereas two separately timed runs of IDENTICAL code measure
// ±5% apart here.
func TestPlannedDispatchWithinDirect(t *testing.T) {
	tr := model.UCFTestbedN(8)
	const n = 4096
	const dispatchIters = 500
	const layerIters = 20000
	pl := plan.New()
	// Resolve the planner's pick once so the direct path invokes the
	// exact same variant the planner dispatches.
	d, ok := pl.Decide(tr, "bcast", n)
	if !ok {
		t.Fatal("no bcast decision")
	}
	plannedOp := func(c hbsp.Ctx, data []byte) error {
		_, err := collective.PlannedBcast(c, pl, n, data)
		return err
	}
	directOp := func(c hbsp.Ctx, data []byte) error {
		return directDispatch(c, d.Variant.Name, n, data, nil)
	}
	// run executes body on every processor of a fresh engine, handing it
	// the broadcast payload on the root.
	run := func(body func(c hbsp.Ctx, data []byte) error) {
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		_, err := eng.Run(func(c hbsp.Ctx) error {
			var data []byte
			if tree := c.Tree(); c.Pid() == tree.Pid(tree.FastestLeaf()) {
				data = bytes.Repeat([]byte{7}, n)
			}
			return body(c, data)
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	repeat := func(op func(hbsp.Ctx, []byte) error) func(hbsp.Ctx, []byte) error {
		return func(c hbsp.Ctx, data []byte) error {
			for i := 0; i < dispatchIters; i++ {
				if err := op(c, data); err != nil {
					return err
				}
			}
			return nil
		}
	}
	allocsPerOp := func(op func(hbsp.Ctx, []byte) error) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(repeat(op))
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / dispatchIters
	}
	direct, planned := allocsPerOp(directOp), allocsPerOp(plannedOp)
	t.Logf("allocations per op: planned %.1f, direct %.1f", planned, direct)
	if planned > 1.05*direct {
		t.Errorf("planned dispatch allocates %.1f per op, direct %.1f: ratio %.3f over 1.05",
			planned, direct, planned/direct)
	}

	var directNs, layerNs float64 // written by processor 0 only
	runtime.GC()
	run(func(c hbsp.Ctx, data []byte) error {
		start := time.Now()
		if err := repeat(directOp)(c, data); err != nil {
			return err
		}
		if c.Pid() != 0 {
			return nil
		}
		directNs = float64(time.Since(start).Nanoseconds()) / dispatchIters
		// The wrapper code of one cached planned dispatch, with the
		// branch outcomes of a real call on the observing processor: two
		// clock reads, the decision lookup, the feedback observation.
		// The observations land in the pending set of a planner that
		// never commits, so the decision state is not perturbed.
		tree := c.Tree()
		start = time.Now()
		for i := 0; i < layerIters; i++ {
			at := hbsp.NowOf(c)
			ld, ok := pl.Decide(tree, "bcast", n)
			if !ok {
				return fmt.Errorf("layer: lost the bcast decision")
			}
			_ = hbsp.NowOf(c)
			pl.Observe(tree, "bcast", ld.Variant.Name, n, ld.RawPred+at, ld.RawPred)
		}
		layerNs = float64(time.Since(start).Nanoseconds()) / layerIters
		return nil
	})
	overhead := (directNs + layerNs) / directNs
	t.Logf("direct %.0f ns/op + layer %.0f ns/op: overhead %.4f", directNs, layerNs, overhead)
	if overhead > 1.05 {
		t.Errorf("planned dispatch overhead %.4f (direct %.0f ns + layer %.0f ns per op) over 1.05",
			overhead, directNs, layerNs)
	}
}

// BenchmarkDecideHit isolates the decision-cache hit path: a memoized
// fingerprint read plus one lock-free map load. This is the overhead a
// Planned* collective pays over the dispatched variant before the
// observer seam.
func BenchmarkDecideHit(b *testing.B) {
	tr := model.UCFTestbedN(8)
	pl := plan.New()
	if _, ok := pl.Decide(tr, "bcast", 4096); !ok {
		b.Fatal("no decision")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pl.Decide(tr, "bcast", 4096); !ok {
			b.Fatal("miss")
		}
	}
}
