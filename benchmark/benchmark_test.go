package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes its own executable for every repetition.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// testScale shrinks warm-up and microprobe loops, and testSeconds sizes
// a repetition's operation count, so the whole package tests in a few
// seconds.
const (
	testScale   = 0.01
	testSeconds = 0.05
)

func testHarness(t *testing.T) *harness {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(root, spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSpecNames checks BENCHMARK.json against the name and unit rules
// of the contract and against the workloads the program implements.
func TestSpecNames(t *testing.T) {
	spec := testHarness(t).spec
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the name rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var listed []string
	for _, w := range spec.Workloads {
		check(w.Name)
		listed = append(listed, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	// BENCHMARK.json lists the gated workloads, which an all-workload run
	// runs first and in that order; the program implements the ungated
	// ones besides.
	if len(listed) > len(workloadOrder) || !equalStrings(listed, workloadOrder[:len(listed)]) {
		t.Errorf("BENCHMARK.json lists %v, an all-workload run starts with %v", listed, workloadOrder)
	}
	ordered := append([]string(nil), workloadOrder...)
	sort.Strings(ordered)
	if got := keys(workloads); !equalStrings(got, ordered) {
		t.Errorf("implemented workloads %v, an all-workload run runs %v", got, ordered)
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// traceEvent is one span of a written trace file.
type traceEvent struct {
	Name string  `json:"name"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Op     int     `json:"op"`
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		SelfUs float64 `json:"self_us"`
	} `json:"args"`
}

// checkTraceFile asserts the span invariants on a written trace: self
// time is never negative, and a child lies inside its parent and shares
// its op.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	type key struct{ tid, id int }
	byID := map[key]traceEvent{}
	for _, ev := range doc.TraceEvents {
		byID[key{ev.Tid, ev.Args.ID}] = ev
	}
	const slack = 0.002 // the file rounds to a nanosecond
	for _, ev := range doc.TraceEvents {
		if ev.Args.SelfUs < -slack {
			t.Errorf("%s: span %s #%d has self time %g us", path, ev.Name, ev.Args.ID, ev.Args.SelfUs)
		}
		if ev.Args.Parent < 0 {
			continue
		}
		p, ok := byID[key{ev.Tid, ev.Args.Parent}]
		if !ok {
			t.Errorf("%s: span %s #%d names a missing parent", path, ev.Name, ev.Args.ID)
			continue
		}
		if ev.Ts < p.Ts-slack || ev.Ts+ev.Dur > p.Ts+p.Dur+slack || ev.Args.Op != p.Args.Op {
			t.Errorf("%s: span %s #%d is not inside its parent %s #%d", path, ev.Name, ev.Args.ID, p.Name, p.Args.ID)
		}
	}
}

// TestRepetitions runs a tiny repetition of every workload in this
// process, untraced and traced: every oracle must pass, the counts that
// have a closed form must equal it, the written traces must satisfy the
// span invariants, and the per-layer metrics measured across the six
// workloads must be exactly those BENCHMARK.json lists.
func TestRepetitions(t *testing.T) {
	h := testHarness(t)
	if _, err := buildWorker(h.root, h.out); err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{"harness.trace_overhead": true, "harness.build_s": true}
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			if name == "virtual_figs" && (!trace || raceEnabled) {
				// A pass takes seconds, and ten times that under the race
				// detector. The traced pass covers the untraced one's code,
				// and the workload itself shares nothing between goroutines.
				continue
			}
			ops := workloads[name].ops(testSeconds, 1)
			res := runRep(repSpec{
				Workload: name, Seed: 7, Ops: ops, Trace: trace,
				Start: time.Now().UnixNano(), Root: h.root, Out: h.out, Scale: testScale,
			})
			if res.Err != "" {
				t.Fatalf("%s (trace %v): %s", name, trace, res.Err)
			}
			if res.Failed != 0 || res.Ops != ops || res.Attempted != ops {
				t.Errorf("%s (trace %v): %d ops of %d, %d attempted, %d failed", name, trace, res.Ops, ops, res.Attempted, res.Failed)
			}
			if res.SetupS <= 0 || res.WallS <= 0 || res.OpsPerS <= 0 || res.CPUusPerOp <= 0 || res.P50us <= 0 || res.MemMB <= 0 {
				t.Errorf("%s (trace %v): an end-to-end ingredient is not positive: %+v", name, trace, res)
			}
			if !trace {
				continue
			}
			for k, v := range res.Layer {
				measured[k] = true
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", name, k, v)
				}
			}
			checkTraceFile(t, filepath.Join(h.out, "trace-"+name+".json"))

			want := map[string]float64{}
			switch name {
			case "sync_inproc":
				want["hbsp.steps_per_op"] = 1
				want["hbsp.bytes_per_op"] = 2 * (nprocs - 1) * 64
				want["wiretrans.deliver_calls_per_op"] = 0
				want["wiretrans.frames_per_op"] = 0
			case "sync_unix", "bulk_unix":
				// One superstep; one Deliver per ordered pair; each is a
				// batch frame and an ack frame, seen written and read.
				want["hbsp.steps_per_op"] = 1
				want["wiretrans.deliver_calls_per_op"] = nprocs * (nprocs - 1)
				want["wiretrans.frames_per_op"] = 4 * nprocs * (nprocs - 1)
			case "coll_tcp":
				want["collective.supersteps_per_round"] = res.Layer["hbsp.steps_per_op"]
				if s := res.Layer["hbsp.steps_per_op"]; s < 5 || s != math.Trunc(s) {
					t.Errorf("coll_tcp: %g supersteps per round, want a whole number of at least 5", s)
				}
			case "multiproc_unix":
				if b := res.Layer["worker.bytes_per_round"]; b < workerBytes {
					t.Errorf("multiproc_unix: %g bytes per round, want at least the %d-byte payload", b, workerBytes)
				}
			}
			for k, v := range want {
				if got := res.Layer[k]; got != v {
					t.Errorf("%s: %s = %g, want %g", name, k, got, v)
				}
			}
		}
	}
	if raceEnabled {
		return // the experiments.* metrics were not measured
	}
	if got, want := keys(measured), names(h.spec.PerLayer); !equalStrings(got, want) {
		t.Errorf("per-layer metrics measured:\n%v\nBENCHMARK.json lists:\n%v", got, want)
	}
}

// TestSegments checks how opDone cuts a repetition's timed region:
// into segments stretches that differ by at most one operation and
// cover every operation, or into one per operation when there are
// fewer operations than that.
func TestSegments(t *testing.T) {
	for _, ops := range []int{1, 2, segments, 25, 10 * segments} {
		r := &rep{repSpec: repSpec{Ops: ops}}
		r.startTimed()
		var cuts []int
		for i := 0; i < ops; i++ {
			r.opDone(1)
			if n := len(r.segRate); n > len(cuts) {
				cuts = append(cuts, r.segDone)
			}
		}
		if want := min(ops, segments); len(cuts) != want || len(r.segCPU) != want || r.segDone != ops {
			t.Errorf("%d operations: segments end at %v, want %d ending at %d", ops, cuts, want, ops)
		}
		prev := 0
		for _, c := range cuts {
			if n := c - prev; n < ops/segments || n > ops/segments+1 {
				t.Errorf("%d operations: a segment of %d", ops, n)
			}
			prev = c
		}
	}
}

// TestRunWorkload drives the parent side on the cheapest workload: the
// repetitions are real child processes, and the printed and reported
// metric names must be those of BENCHMARK.json, in both modes.
func TestRunWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("repetition processes are measurements, and the benchmark does not measure a -race build")
	}
	h := testHarness(t)
	for _, trace := range []bool{false, true} {
		results, err := h.runWorkloads([]string{"sync_inproc"}, 3, 0.25, trace)
		if err != nil {
			t.Fatal(err)
		}
		res := results[0]
		want := names(h.spec.EndToEnd)
		if trace {
			want = names(h.spec.PerLayer)
		}
		if got := keys(res.Metrics); !equalStrings(got, want) {
			t.Errorf("trace %v: metrics %v, want %v", trace, got, want)
		}
		if !res.Correct || res.Failed != 0 || res.FailRatio != 0 || res.Attempted < 1 {
			t.Errorf("trace %v: correct %v, %d failed of %d: %v", trace, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		if !trace {
			for name, m := range res.Metrics {
				if len(m.Values) != repetitions || m.Min <= 0 || m.Min > m.Median || m.Median > m.Max {
					t.Errorf("%s: %+v", name, m)
				}
			}
		}
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatal(err)
		}
		if got := keys(obj); !equalStrings(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("driver line has keys %v", got)
		}
	}
	if _, err := h.runWorkloads([]string{"no_such_workload"}, 1, 1, false); err == nil {
		t.Error("an unknown workload ran")
	}
}

// TestFailedRepetitions checks that a repetition which leaves no
// account of itself costs every operation it was to run: a child that
// exits non-zero, and one that an operation's run error stops half way.
func TestFailedRepetitions(t *testing.T) {
	h := testHarness(t)
	good := repResult{Attempted: 100, Ops: 100, WallS: 1, SetupS: 0.1, OpsPerS: 100, CPUusPerOp: 1e4, P50us: 10, MemMB: 10}
	res := &workloadResult{Workload: "sync_inproc", order: h.spec.EndToEnd,
		Metrics: map[string]metricResult{}, values: map[string][]float64{}}
	for i := 0; i < 7; i++ {
		res.addEndToEnd(good, 100)
	}
	h.exe = "/bin/false"
	crashed := h.spawn(repSpec{Workload: "sync_inproc", Ops: 100}, 1)
	if crashed.Err == "" {
		t.Fatal("a child that exits non-zero reported no error")
	}
	for i := 0; i < 3; i++ {
		res.addEndToEnd(crashed, 100)
	}
	if err := res.finish(); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1000 || res.Failed != 300 || res.FailRatio != 0.3 || len(res.Errors) != 3 {
		t.Errorf("3 of 10 repetitions crashed: correct %v, %d failed of %d, ratio %g, errors %v",
			res.Correct, res.Failed, res.Attempted, res.FailRatio, res.Errors)
	}
	if line := res.driverLine(); line["correct"] != false || line["failed"] != 300 {
		t.Errorf("driver line %v", line)
	}
	if n := len(res.Metrics["ops_per_s"].Values); n != 7 {
		t.Errorf("%d repetitions gave values, want the 7 that completed", n)
	}

	// A workload whose run stops with an error loses the operations it
	// had not completed.
	workloads["fails_half_way"] = workload{run: func(r *rep) error {
		r.startTimed()
		r.res.Ops = r.Ops / 2
		return os.ErrDeadlineExceeded
	}}
	defer delete(workloads, "fails_half_way")
	half := runRep(repSpec{Workload: "fails_half_way", Ops: 10, Start: time.Now().UnixNano(), Scale: testScale})
	if half.Err == "" || half.Attempted != 10 || half.Failed != 5 {
		t.Errorf("a run error half way: %+v", half)
	}

	every := &workloadResult{Workload: "sync_inproc", values: map[string][]float64{}}
	every.addEndToEnd(crashed, 100)
	if err := every.finish(); err == nil {
		t.Error("a run with no completed repetition reported metrics")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([10, 11, 12, 14, 19], n=4) is [10.5, 12, 16.5].
	if got := quartileSpread([]float64{19, 10, 12, 14, 11}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spread = %g, want 0.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %g", got)
	}
}

func TestFitLatencyGap(t *testing.T) {
	var sizes, times []float64
	for _, n := range wireSizes {
		sizes = append(sizes, float64(n))
		times = append(times, 7000+1.25*float64(n))
	}
	L, g := fitLatencyGap(sizes, times)
	if math.Abs(L-7000) > 1e-6 || math.Abs(g-1.25) > 1e-9 {
		t.Errorf("fit gave L=%g g=%g, want 7000 and 1.25", L, g)
	}
}

// TestAdoptClipsToParent feeds the tracer barrier intervals whose clock
// is slightly off: they must land under the right span, inside it, and
// after the sibling before them.
func TestAdoptClipsToParent(t *testing.T) {
	pt := &pidTrace{spans: []span{
		{name: "op", op: 4, parent: -1, start: 100, end: 1000},
		{name: "hbsp.sync", op: 4, parent: 0, start: 200, end: 900},
		{name: "wiretrans.deliver", op: 4, parent: 1, start: 250, end: 500},
	}}
	last := map[int]int64{}
	pt.adopt("hbsp.barrier_wait", 50, 80, 3, last)     // before every span: dropped
	pt.adopt("hbsp.barrier_wait", 600, 800, 3, last)   // inside the sync
	pt.adopt("hbsp.barrier_wait", 790, 950, 3, last)   // starts inside the previous one, outlasts the sync
	pt.adopt("hbsp.barrier_wait", 1500, 1600, 3, last) // after every span: dropped
	if len(pt.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(pt.spans))
	}
	for _, s := range pt.spans[3:] {
		if s.parent != 1 || s.op != 4 || s.start < 500 || s.end > 900 || s.end <= s.start {
			t.Errorf("adopted span %+v", s)
		}
	}
	if pt.spans[4].start < pt.spans[3].end {
		t.Errorf("siblings overlap: %+v %+v", pt.spans[3], pt.spans[4])
	}
	for i, self := range pt.selfTimes() {
		if self < 0 {
			t.Errorf("span %d has self time %d", i, self)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := testHarness(t).spec
	make5 := func(v float64) metricResult {
		return metricResult{Median: v, Values: []float64{v * 0.99, v * 0.995, v, v * 1.005, v * 1.01}}
	}
	var edit func(*workloadResult)
	file := func(opsPerS float64, noisySetup bool) string {
		f := resultFile{Workloads: map[string]*workloadResult{}}
		for _, name := range workloadOrder {
			ms := map[string]metricResult{}
			for _, m := range spec.EndToEnd {
				ms[m.Name] = make5(100)
			}
			ms["ops_per_s"] = make5(opsPerS)
			if noisySetup {
				ms["setup_s"] = metricResult{Median: 100, Values: []float64{40, 70, 100, 160, 190}}
			}
			f.Workloads[name] = &workloadResult{Correct: true, Metrics: ms}
			if edit != nil {
				edit(f.Workloads[name])
			}
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(1000, false)

	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, file(1000, false)); err != nil {
		t.Errorf("a run against itself: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "worse\n") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a run against itself is not all ok:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, file(700, false)); err == nil {
		t.Errorf("a 30%% throughput loss passed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, file(1300, false)); err != nil {
		t.Errorf("a throughput gain failed: %v", err)
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, file(1000, true)); err != nil {
		t.Errorf("a noisy but level set-up failed: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound is not unresolved:\n%s", out.String())
	}

	// What b lost or broke is worse, whatever its numbers say.
	for name, e := range map[string]func(*workloadResult){
		"a lost metric":        func(w *workloadResult) { delete(w.Metrics, "op_p50_us") },
		"a crashed repetition": func(w *workloadResult) { w.Correct, w.Errors = false, []string{"repetition process: exit status 2"} },
		"a failed operation":   func(w *workloadResult) { w.FailRatio = 0.001 },
	} {
		edit = e
		broken := file(1000, false)
		edit = nil
		out.Reset()
		if err := compareFiles(&out, spec, base, broken); err == nil {
			t.Errorf("%s in b passed:\n%s", name, out.String())
		}
	}

	// setup_s may move by its floor where that is more than its bound.
	setup := func(v float64) string {
		edit = func(w *workloadResult) { w.Metrics["setup_s"] = make5(v) }
		defer func() { edit = nil }()
		return file(1000, false)
	}
	out.Reset()
	if err := compareFiles(&out, spec, setup(0.040), setup(0.040+0.9*setupFloorS)); err != nil {
		t.Errorf("set-up worse by less than the floor failed: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, spec, setup(0.040), setup(0.040+1.1*setupFloorS)); err == nil {
		t.Errorf("set-up worse by more than the floor passed:\n%s", out.String())
	}
}
