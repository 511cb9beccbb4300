// Command hbspk-sim runs one collective on one machine and prints the
// superstep profile and an ASCII timeline of the run — the quickest way
// to *see* an HBSP^k computation's super^i-step structure. A collective
// is an entry of the catalogue (internal/catalog); with -attrib, an
// entry that runs a cost-table row is also set beside the row's closed
// form.
//
// Usage:
//
//	hbspk-sim -machine figure1 -collective gather-hier -n 400000
//	hbspk-sim -machine grid -collective allreduce -timeline-width 120
//	hbspk-sim -machine cluster.json -collective bcast-hier -pure
//
// Auto-tuning: -collective auto runs an iterative mixed workload whose
// every collective is dispatched through the planner (DESIGN.md §5.9) —
// the run report is followed by the decision cache and planner counters:
//
//	hbspk-sim -machine ucf -collective auto -n 200000 -rounds 6
//
// Fault injection: a chaos plan crash-stops processors and perturbs
// messages, and the ft-* collectives survive it:
//
//	hbspk-sim -machine ucf -collective ft-gather -crash 3@1
//	hbspk-sim -collective ft-allreduce -drop 0.1 -chaos-seed 7
//
// Self-healing: -reorg-every rebalances the machine tree from measured
// speed estimates at every Nth global barrier, and -churn schedules
// elastic membership (late joins, orderly leaves) — the churn-soak
// collective is an iterative workload built to survive both:
//
//	hbspk-sim -machine ucf -collective churn-soak -rounds 12 \
//	    -churn join:6@2,leave:4@5 -straggler 1@0-30x5 \
//	    -reorg-every 3 -reorg-seed 11
//	hbspk-sim -collective churn-soak -churn seeded:2:2:4 -reorg-every 3
//
// Verification: -verify arms the happens-before determinism checker
// (vector clocks on every message and barrier), and -explore N replays
// the program under N seeded delivery-order permutations and diffs the
// final states. The seeded nondeterministic demos show both failing:
//
//	hbspk-sim -collective mutate-send -verify
//	hbspk-sim -collective nondet-reduce -explore 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hbspk/internal/catalog"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
)

// fail prints the error — naming the failing processor and superstep
// when the error carries them — and exits non-zero.
func fail(code int, err error) {
	var pf *hbsp.ErrPeerFailed
	if errors.As(err, &pf) {
		fmt.Fprintf(os.Stderr, "hbspk-sim: processor p%d failed at superstep %d (%s): %v\n",
			pf.Pid, pf.Step, pf.Cause, err)
	} else {
		fmt.Fprintf(os.Stderr, "hbspk-sim: %v\n", err)
	}
	os.Exit(code)
}

// parseChurns turns "join:3@2,leave:2@4" into elastic-membership fates
// (join points are completed global barriers, leave points sync
// ordinals). The form "seeded:joins:leaves:span" delegates to the
// deterministic SeededChurn generator with the chaos seed.
func parseChurns(spec string, seed int64, nprocs int) ([]fabric.Churn, error) {
	if spec == "" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(spec, "seeded:"); ok {
		var joins, leaves, span int
		if _, err := fmt.Sscanf(rest, "%d:%d:%d", &joins, &leaves, &span); err != nil {
			return nil, fmt.Errorf("bad -churn %q (want seeded:joins:leaves:span): %w", spec, err)
		}
		return fabric.SeededChurn(seed, nprocs, joins, leaves, span), nil
	}
	var out []fabric.Churn
	for _, part := range strings.Split(spec, ",") {
		kind, at, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad -churn entry %q (want join:pid@barrier or leave:pid@sync)", part)
		}
		var pid, when int
		if _, err := fmt.Sscanf(at, "%d@%d", &pid, &when); err != nil {
			return nil, fmt.Errorf("bad -churn entry %q: %w", part, err)
		}
		switch kind {
		case "join":
			out = append(out, fabric.Churn{Pid: pid, JoinAt: when})
		case "leave":
			out = append(out, fabric.Churn{Pid: pid, LeaveAt: when})
		default:
			return nil, fmt.Errorf("bad -churn kind %q (want join or leave)", kind)
		}
	}
	return out, nil
}

// parseStragglers turns "1@0-30x5" into straggler windows.
func parseStragglers(spec string) ([]fabric.Straggler, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fabric.Straggler
	for _, part := range strings.Split(spec, ",") {
		var pid, from, to int
		var factor float64
		if _, err := fmt.Sscanf(part, "%d@%d-%dx%f", &pid, &from, &to, &factor); err != nil {
			return nil, fmt.Errorf("bad -straggler entry %q (want pid@from-toxfactor): %w", part, err)
		}
		out = append(out, fabric.Straggler{Pid: pid, FromStep: from, ToStep: to, Factor: factor})
	}
	return out, nil
}

// parseCrashes turns "2@1,5@3" into crash-stop injections.
func parseCrashes(spec string) ([]fabric.Crash, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fabric.Crash
	for _, part := range strings.Split(spec, ",") {
		var pid, step int
		if _, err := fmt.Sscanf(part, "%d@%d", &pid, &step); err != nil {
			return nil, fmt.Errorf("bad -crash entry %q (want pid@step): %w", part, err)
		}
		out = append(out, fabric.Crash{Pid: pid, AtStep: step})
	}
	return out, nil
}

func main() {
	machine := flag.String("machine", "figure1", "preset (ucf, figure1, grid, chain) or JSON spec path")
	coll := flag.String("collective", "gather-hier", catalog.Names(false))
	n := flag.Int("n", 400000, "problem size in bytes")
	pure := flag.Bool("pure", false, "pure cost model instead of PVM overheads")
	width := flag.Int("timeline-width", 100, "timeline width in columns")
	noise := flag.Float64("noise", 0, "noise amplitude (non-dedicated cluster)")
	seed := flag.Int64("seed", 1, "noise seed")
	dot := flag.Bool("dot", false, "print the machine as Graphviz DOT and exit")
	jsonOut := flag.String("json", "", "also write the run report as JSON to this path")
	crash := flag.String("crash", "", "crash-stop injections, comma-separated pid@step pairs (e.g. 2@1,5@3)")
	churn := flag.String("churn", "", "elastic membership: join:pid@barrier and leave:pid@sync entries, or seeded:joins:leaves:span")
	straggler := flag.String("straggler", "", "straggler windows, comma-separated pid@from-toxfactor entries (e.g. 1@0-30x5)")
	reorgEvery := flag.Int("reorg-every", 0, "rebalance the tree from measured estimates every N global barriers (0 = frozen)")
	reorgSeed := flag.Int64("reorg-seed", 1, "reorg plan tie-break seed (equal seeds, equal schedules)")
	rounds := flag.Int("rounds", 8, "iteration count for the auto, bcast-reduce and churn-soak collectives")
	drop := flag.Float64("drop", 0, "chaos: fraction of messages dropped")
	dup := flag.Float64("duplicate", 0, "chaos: fraction of messages duplicated")
	delay := flag.Float64("delay", 0, "chaos: fraction of messages delayed")
	delaySteps := flag.Int("delay-steps", 1, "chaos: supersteps a delayed message is held")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: fate seed")
	detect := flag.Float64("detect-factor", 0, "failure-detection deadline factor (0 = default)")
	verify := flag.Bool("verify", false, "arm the happens-before determinism checker (vector clocks, zero modeled cost)")
	explore := flag.Int("explore", 0, "replay under N seeded delivery-order permutations and diff final states (0 = off)")
	exploreSeed := flag.Int64("explore-seed", 1, "delivery-order permutation seed for -explore")
	eventsOut := flag.String("events-out", "", "observability: write the run's span events as JSONL to this path")
	metricsOut := flag.String("metrics-out", "", "observability: write the run's metrics (Prometheus text format) to this path")
	traceOut := flag.String("trace-out", "", "observability: write the run's spans as Chrome trace-event JSON (load in chrome://tracing or Perfetto) to this path")
	obsvSample := flag.Int("obsv-sample", 1, "observability: keep one of every N delivery spans (metrics still count all)")
	debugAddr := flag.String("debug-addr", "", "observability: serve /metrics, /debug/pprof and /debug/vars on this address during the run")
	attrib := flag.Bool("attrib", false, "print predicted-vs-measured attribution tables (implied by any observability output flag)")
	flag.Parse()

	tr, err := model.LoadMachine(*machine)
	if err != nil {
		fail(1, err)
	}
	if *dot {
		fmt.Print(tr.DOT())
		return
	}
	cfg := fabric.PVM()
	if *pure {
		cfg = fabric.PureModel()
	}
	if *noise > 0 {
		cfg.Noise = *noise
		cfg.Seed = *seed
	}

	crashes, err := parseCrashes(*crash)
	if err != nil {
		fail(2, err)
	}
	churns, err := parseChurns(*churn, *chaosSeed, tr.NProcs())
	if err != nil {
		fail(2, err)
	}
	stragglers, err := parseStragglers(*straggler)
	if err != nil {
		fail(2, err)
	}
	var chaos *fabric.ChaosPlan
	if len(crashes) > 0 || len(churns) > 0 || len(stragglers) > 0 || *drop > 0 || *dup > 0 || *delay > 0 {
		chaos = &fabric.ChaosPlan{
			Seed:       *chaosSeed,
			Crashes:    crashes,
			Churns:     churns,
			Stragglers: stragglers,
			Drop:       *drop,
			Duplicate:  *dup,
			Delay:      *delay,
			DelaySteps: *delaySteps,
		}
	}

	entry, err := catalog.Lookup(*coll)
	if err != nil {
		fail(2, err)
	}
	planner := plan.New()
	prog := entry.Program(tr, catalog.Args{N: *n, Rounds: *rounds, Planner: planner})
	eng := hbsp.NewVirtual(tr, fabric.New(tr, cfg))
	eng.Chaos = chaos
	eng.DetectFactor = *detect
	eng.Verify = *verify
	eng.ReorgEvery = *reorgEvery
	eng.ReorgSeed = *reorgSeed

	// One recorder feeds every observability sink; exporting is
	// post-quiesce, the debug endpoint live.
	var rec *obsv.Recorder
	if *eventsOut != "" || *metricsOut != "" || *traceOut != "" || *debugAddr != "" || *attrib {
		rec = obsv.New(obsv.Config{SampleEvery: *obsvSample})
		eng.Obsv = rec
	}
	if *debugAddr != "" {
		ds, err := obsv.ServeDebug(*debugAddr, rec.Metrics())
		if err != nil {
			fail(1, err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "hbspk-sim: debug endpoint on http://%s/metrics\n", ds.Addr)
	}

	if *explore > 0 {
		// Exploration always arms the checker: a permuted schedule that
		// trips the happens-before rule should be reported as such, not
		// as an unexplained state diff.
		eng.Verify = true
		set, err := eng.RunSchedules(prog, *explore, *exploreSeed)
		if err != nil {
			fail(1, err)
		}
		fmt.Print(tr.String())
		fmt.Printf("\n%s of %d bytes under %d delivery schedules (seed %d):\n\n",
			*coll, *n, *explore, *exploreSeed)
		for _, r := range set.Runs {
			status := "ok"
			if r.Err != nil {
				status = r.Err.Error()
			}
			fmt.Printf("  schedule %2d: fingerprint %016x  %s\n", r.Perm, r.Fingerprint, status)
		}
		if !set.Agree() {
			fmt.Printf("\nSCHEDULE-DEPENDENT: %s\n", set.Diff())
			os.Exit(1)
		}
		if err := set.Runs[0].Err; err != nil {
			fail(1, err)
		}
		fmt.Printf("\nall %d schedules agree: the result is delivery-order independent\n", *explore)
		return
	}

	rep, err := eng.Run(prog)
	if err != nil {
		fail(1, err)
	}
	fmt.Print(tr.String())
	fmt.Printf("\n%s of %d bytes:\n\n", *coll, *n)
	fmt.Print(rep.String())
	fmt.Println()
	fmt.Print(rep.Timeline(*width))
	if len(planner.Decisions()) > 0 {
		fmt.Println()
		fmt.Println("planner decisions (auto-tuned picks, closed-form model cost):")
		for _, d := range planner.Decisions() {
			fmt.Printf("  %s\n", d)
		}
		st := planner.Stats()
		fmt.Printf("planner stats: %d hits, %d misses\n", st.Hits, st.Misses)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(1, err)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fail(1, err)
		}
	}

	if rec != nil {
		events := rec.Events()
		fmt.Println()
		fmt.Print(obsv.AttribTable(
			"attribution: predicted T_i vs measured (virtual clock)",
			obsv.Attribute(events)).String())
		if row, ok := entry.Row(); ok {
			fmt.Println()
			fmt.Print(obsv.AttributeBreakdown(
				"closed-form "+*coll+" prediction vs run", row.Cost(tr, *n), rep).String())
		}
		writeTo(*eventsOut, func(w io.Writer) error { return obsv.WriteJSONL(w, events) })
		writeTo(*traceOut, func(w io.Writer) error { return obsv.WriteChromeTrace(w, events) })
		writeTo(*metricsOut, rec.Metrics().WritePrometheus)
		if lost := rec.Lost(); lost > 0 {
			fmt.Fprintf(os.Stderr, "hbspk-sim: span ring overflowed, %d events lost (raise obsv capacity or -obsv-sample)\n", lost)
		}
	}
}

// writeTo creates path and runs the exporter into it; an empty path is
// a disabled sink.
func writeTo(path string, fn func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(1, err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fail(1, err)
	}
}
