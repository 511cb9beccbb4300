// Command benchmark is the repository's wall-clock benchmark: six
// workloads over the superstep ladder, every output checked against an
// oracle, every metric of BENCHMARK.json printed by name with its unit.
// README.md in this directory is the glossary.
//
//	go run ./benchmark                      all workloads, end-to-end metrics
//	go run ./benchmark -trace 1             all workloads, traced: per-layer metrics
//	go run ./benchmark -workload sync_unix  one workload; last line is one JSON object
//	go run ./benchmark -out a.json          all workloads, result file named
//	go run ./benchmark -compare a.json b.json
//
// Every measurement runs in a fresh child process of this program, one
// at a time. All wire traffic crosses the host's loopback interface or
// a unix socket, never a real link.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hbspk/internal/stats"
)

// tracedShare is the share of a run's seconds that sizes each of the
// two repetitions of a traced run. At run_seconds 12 the untraced one
// then has more than 1000 operations on every engine workload, which a
// 99th percentile needs.
const tracedShare = 0.5

// defaultSeed seeds the workload inputs when -seed is not given.
const defaultSeed = 1

func main() {
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to measure a -race build")
		os.Exit(2)
	}
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	var (
		workload = flag.String("workload", "", "run this one workload and print a JSON result as the last line (default: all)")
		seed     = flag.Int64("seed", defaultSeed, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "seconds one run of a workload measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing benchmark/out/trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out      = flag.String("out", "", "result file of an all-workload run (default benchmark/out/result[-trace].json)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *compare, *out, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, compare bool, out string, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	h, err := newHarness(root, spec, 1)
	if err != nil {
		return err
	}
	var names []string
	for _, name := range workloadOrder {
		if workload == "" || workload == name {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	results, err := h.runWorkloads(names, seed, seconds, trace)
	if err != nil {
		return err
	}
	for _, res := range results {
		res.print(os.Stdout)
	}
	if workload != "" {
		return json.NewEncoder(os.Stdout).Encode(results[0].driverLine())
	}

	file := resultFile{Env: h.environment(seed, seconds, trace), Workloads: map[string]*workloadResult{}}
	for _, res := range results {
		file.Workloads[res.Workload] = res
	}
	if out == "" {
		out = filepath.Join(h.out, "result.json")
		if trace {
			out = filepath.Join(h.out, "result-trace.json")
		}
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", out)
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

// childMain runs one repetition and prints its result.
func childMain(specJSON string) int {
	var s repSpec
	if err := json.Unmarshal([]byte(specJSON), &s); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: child spec: %v\n", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(runRep(s)); err != nil {
		return 2
	}
	return 0
}

// harness is the parent side: it spawns repetitions and aggregates.
type harness struct {
	root, out, exe string
	spec           *benchSpec
	scale          float64
	// tmp is the TMPDIR of every child, so sockets and scratch
	// directories stay inside the checkout. The children run in root and
	// are given it relative to root: a unix socket address holds about
	// 108 bytes, which an absolute path of a deep checkout would not fit.
	tmp string
	// buildS is how long building cmd/hbspk-worker took, 0 until built.
	buildS float64
	// hung is set once a repetition was killed at its deadline; no
	// further repetition starts, so a run that hangs still ends.
	hung bool
}

func newHarness(root string, spec *benchSpec, scale float64) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, out: filepath.Join(root, "benchmark", "out"), exe: exe, spec: spec, scale: scale}
	h.tmp = filepath.Join("benchmark", "out", "tmp")
	if err := os.MkdirAll(filepath.Join(root, h.tmp), 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

// spawn runs one repetition as a fresh process, pinned to GOMAXPROCS
// engineProcs, in its own process group. expect is how long its timed
// operations should take; the deadline derived from it is only a guard
// against a hang. A repetition that outlives it is killed with
// everything it started. Whatever a repetition left in the temporary
// directory is removed.
func (h *harness) spawn(s repSpec, expect float64) repResult {
	if h.hung {
		return repResult{Err: "not started: an earlier repetition hung"}
	}
	s.Root, s.Out, s.Scale = h.root, h.out, h.scale
	defer func() {
		tmp := filepath.Join(h.root, h.tmp)
		if entries, err := os.ReadDir(tmp); err == nil {
			for _, e := range entries {
				os.RemoveAll(filepath.Join(tmp, e.Name()))
			}
		}
	}()
	cmd := exec.Command(h.exe)
	cmd.Dir = h.root
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s.Start = time.Now().UnixNano()
	specJSON, err := json.Marshal(s)
	if err != nil {
		return repResult{Err: err.Error()}
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON),
		fmt.Sprintf("GOMAXPROCS=%d", engineProcs), "TMPDIR="+h.tmp)
	if err := cmd.Start(); err != nil {
		return repResult{Err: err.Error()}
	}
	deadline := time.Duration(4*expect*float64(time.Second)) + 40*time.Second
	timer := time.AfterFunc(deadline, func() { _ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) })
	err = cmd.Wait()
	if !timer.Stop() {
		h.hung = true
		return repResult{Err: fmt.Sprintf("repetition killed at its %v deadline", deadline)}
	}
	if err != nil {
		return repResult{Err: fmt.Sprintf("repetition process: %v", err)}
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return repResult{Err: fmt.Sprintf("repetition output: %v", err)}
	}
	return res
}

// metricResult is one metric of one workload: the median over the
// repetitions, which is the reported value, with the extremes and the
// repetitions' own values beside it.
type metricResult struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

type workloadResult struct {
	Workload    string                  `json:"workload"`
	Traced      bool                    `json:"traced"`
	Repetitions int                     `json:"repetitions"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailRatio   float64                 `json:"fail_ratio"`
	Samples     int                     `json:"latency_samples"`
	Metrics     map[string]metricResult `json:"metrics"`
	Errors      []string                `json:"errors,omitempty"`
	order       []metricSpec
	values      map[string][]float64
}

// add counts one repetition of planned operations into the workload's
// totals and reports whether it completed and so has metrics to offer.
// A repetition that left no account of itself (killed at its deadline,
// crashed, exited non-zero or printed something unreadable) has failed
// every operation it was to run.
func (w *workloadResult) add(r repResult, planned int) bool {
	if r.Err != "" && r.Attempted == 0 {
		r.Attempted, r.Failed = planned, planned
	}
	w.Repetitions++
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Samples += r.Samples
	if r.Err != "" {
		w.Errors = append(w.Errors, r.Err)
	}
	return r.Err == "" && r.Ops > 0 && r.WallS > 0
}

// addEndToEnd adds an untraced repetition and its end-to-end values.
func (w *workloadResult) addEndToEnd(r repResult, planned int) {
	if !w.add(r, planned) {
		return
	}
	for name, v := range map[string]float64{
		"setup_s": r.SetupS, "ops_per_s": r.OpsPerS, "op_p50_us": r.P50us,
		"cpu_us_per_op": r.CPUusPerOp, "mem_peak_mb": r.MemMB,
	} {
		w.values[name] = append(w.values[name], v)
	}
}

// addPerLayer adds the two repetitions of a traced run. Allocation, GC
// and tail-latency figures come from the untraced one: the tracer's own
// allocations and pauses would be in the traced one's.
func (w *workloadResult) addPerLayer(plain, traced repResult, buildS float64) {
	// Both were spawned with a positive count; a lost one costs one
	// operation, enough to make the run incorrect.
	if okPlain, okTraced := w.add(plain, 1), w.add(traced, 1); !okPlain || !okTraced {
		return
	}
	layer := traced.Layer
	for k, v := range plain.Layer {
		layer[k] = v
	}
	layer["harness.trace_overhead"] = (float64(traced.Ops) / traced.WallS) / (float64(plain.Ops) / plain.WallS)
	layer["harness.build_s"] = buildS
	for _, m := range w.order {
		w.values[m.Name] = []float64{layer[m.Name]}
	}
}

// finish turns the collected values into the reported metrics.
func (w *workloadResult) finish() error {
	if len(w.values) == 0 {
		return fmt.Errorf("%s: no repetition completed: %s", w.Workload, strings.Join(w.Errors, "; "))
	}
	for _, m := range w.order {
		w.Metrics[m.Name] = summarize(m.Unit, w.values[m.Name])
	}
	w.Correct = w.Failed == 0 && len(w.Errors) == 0
	w.FailRatio = float64(w.Failed) / float64(w.Attempted)
	return nil
}

// runWorkloads makes one run of each named workload: its untraced
// repetitions for the end-to-end metrics, or an untraced and a traced
// repetition for the per-layer ones. End-to-end numbers never come from
// a traced repetition. Repetitions go round the workloads, so a
// disturbance of the machine that lasts a minute lands on a few
// repetitions of each workload, not on every repetition of one.
func (h *harness) runWorkloads(names []string, seed int64, seconds float64, trace bool) ([]*workloadResult, error) {
	results := make([]*workloadResult, len(names))
	needWorker := trace
	for i, name := range names {
		if _, ok := workloads[name]; !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		needWorker = needWorker || name == "multiproc_unix"
		results[i] = &workloadResult{Workload: name, Traced: trace, order: h.spec.EndToEnd,
			Metrics: map[string]metricResult{}, values: map[string][]float64{}}
		if trace {
			results[i].order = h.spec.PerLayer
		}
	}
	if needWorker && h.buildS == 0 {
		d, err := buildWorker(h.root, h.out)
		if err != nil {
			return nil, err
		}
		h.buildS = d.Seconds()
	}

	if trace {
		for _, res := range results {
			w := workloads[res.Workload]
			s := repSpec{Workload: res.Workload, Seed: seed, Ops: w.ops(tracedShare*seconds, 1)}
			plain := h.spawn(s, tracedShare*seconds)
			s.Trace, s.Ops = true, min(s.Ops, w.traceOps)
			res.addPerLayer(plain, h.spawn(s, tracedShare*seconds), h.buildS)
		}
	} else {
		for i := 0; i < repetitions; i++ {
			for _, res := range results {
				ops := workloads[res.Workload].ops(seconds, repetitions)
				r := h.spawn(repSpec{Workload: res.Workload, Seed: seed + int64(i), Ops: ops}, seconds/repetitions)
				res.addEndToEnd(r, ops)
			}
		}
	}
	for _, res := range results {
		if err := res.finish(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func summarize(unit string, values []float64) metricResult {
	lo, hi := stats.MinMax(values)
	return metricResult{Unit: unit, Median: median(values), Min: lo, Max: hi, Values: values}
}

// print writes the workload's metrics for a reader, in the order of
// BENCHMARK.json.
func (w *workloadResult) print(out *os.File) {
	kind := "end-to-end, tracing off"
	if w.Traced {
		kind = "per-layer, from one untraced and one traced repetition"
	}
	fmt.Fprintf(out, "workload %s (%s; %d repetitions, each a fresh process; loopback or unix socket only, no real link)\n",
		w.Workload, kind, w.Repetitions)
	for _, m := range w.order {
		r := w.Metrics[m.Name]
		if w.Traced {
			fmt.Fprintf(out, "  %-40s %14.6g %s\n", m.Name, r.Median, r.Unit)
			continue
		}
		fmt.Fprintf(out, "  %-14s median %14.6g  min %14.6g  max %14.6g  %s\n", m.Name, r.Median, r.Min, r.Max, r.Unit)
	}
	note := ""
	if w.Workload == "multiproc_unix" || w.Workload == "virtual_figs" {
		note = " (op_p50_us: one sample per repetition resp. per pass, wall / ops)"
	}
	fmt.Fprintf(out, "  fail_ratio %g (%d failed of %d attempted); %d latency samples%s\n",
		w.FailRatio, w.Failed, w.Attempted, w.Samples, note)
	for _, e := range w.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}

// driverLine is the one-object summary the PR driver reads.
func (w *workloadResult) driverLine() map[string]any {
	metrics := map[string]any{}
	for name, r := range w.Metrics {
		metrics[name] = map[string]any{"value": r.Median, "unit": r.Unit}
	}
	attempted := w.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": w.Correct, "attempted": attempted, "failed": w.Failed, "metrics": metrics}
}

// resultFile is what an all-workload run writes.
type resultFile struct {
	Env       map[string]any             `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// environment records what a result depends on besides the code.
func (h *harness) environment(seed int64, seconds float64, trace bool) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if raw, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(raw))
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return map[string]any{
		"seed": seed, "run_seconds": seconds, "repetitions": repetitions, "tracing": trace,
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": engineProcs, "kernel": kernel, "links": "loopback and unix sockets only",
	}
}
