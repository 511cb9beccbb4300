package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// A repetition is one fresh process running one workload once: set-up,
// a fixed warm-up, then a fixed number of timed operations in a closed
// loop. The parent spawns it with a repSpec in the environment and reads
// a repResult from its standard output.

// childEnv carries the JSON repSpec to a repetition process.
const childEnv = "HBSPK_BENCH_CHILD"

type repSpec struct {
	Workload string
	Seed     int64
	// Ops is the number of timed operations, fixed by the parent from
	// the workload's table entry: the same on every commit, never a
	// duration.
	Ops   int
	Trace bool
	// Start is the Unix time in nanoseconds at which the parent spawned
	// the process; setup_s is measured from it.
	Start int64
	// Root is the checkout; Out the directory for traces, sockets and
	// built binaries (benchmark/out).
	Root, Out string
	// Scale shrinks warm-up and microprobe loops; 1 for a real run,
	// smaller in the package's own test.
	Scale float64
}

type repResult struct {
	// Attempted is the repetition's fixed operation count, Ops those
	// that completed, Failed those whose oracle check failed or that
	// never completed.
	Attempted, Ops, Failed int
	Samples                int
	SetupS                 float64
	// WallS is the whole timed region's; OpsPerS and CPUusPerOp are
	// medians over its segments.
	WallS      float64
	OpsPerS    float64
	CPUusPerOp float64
	P50us      float64
	MemMB      float64
	// Layer holds the per-layer metrics this repetition measured.
	Layer map[string]float64
	Err   string
}

// rep is the state of the repetition in progress.
type rep struct {
	repSpec
	tr  *tracer
	res repResult

	t0  time.Time
	ms0 runtime.MemStats
	// lat holds one latency sample per timed operation, in microseconds.
	lat []float64
	// segT and segRu were read when the segment in progress began;
	// segRate and segCPU hold one value per closed segment.
	segT            time.Time
	segRu           syscall.Rusage
	segDone         int
	segRate, segCPU []float64

	failMu sync.Mutex
	failed map[int]bool
}

// repetitions is how many fresh processes one untraced run of a
// workload consists of; a reported value is the median over them. Eight
// of a little over a second each: there have to be enough of them that
// one or two hit by a burst of the host leave the median alone.
const repetitions = 8

// segments is how many stretches of consecutive operations a
// repetition's timed region is cut into. A repetition's ops_per_s and
// cpu_us_per_op are the medians over its segments, as its op_p50_us is
// the median over its operations: a stall of the host that lands in a
// few segments then moves none of the three, where it would move a
// quotient taken over the whole region.
const segments = 12

// engineProcs is the GOMAXPROCS of every repetition process. With one
// thread the four processors of the engine workloads take turns on it
// and a step costs the sum of their work: what is measured is the
// program's own instructions and system calls, not how the Go scheduler
// and the hypervisor wake parked threads of a shared two-core box,
// which the same code did 40 % slower or faster from run to run (see
// README.md, "GOMAXPROCS").
const engineProcs = 1

// workload is one workload of BENCHMARK.json: its implementation and
// the fixed size of its runs. rate is the timed operations of a whole
// run per second of the run's --seconds, set a little under what the
// reference box sustains so that a run measures for about that long;
// traceOps caps a traced repetition so its spans fit in memory. Both
// are constants of the benchmark: a faster commit finishes the same
// operations sooner, it does not run more of them.
type workload struct {
	run      func(*rep) error
	rate     float64
	traceOps int
}

var workloads = map[string]workload{
	"sync_inproc":    {func(r *rep) error { return runSteps(r, "", 64) }, 19000, 4000},
	"sync_unix":      {func(r *rep) error { return runSteps(r, "unix", 64) }, 6400, 4000},
	"bulk_unix":      {func(r *rep) error { return runSteps(r, "unix", 256<<10) }, 270, 600},
	"coll_tcp":       {runCollectives, 200, 1000},
	"multiproc_unix": {runMultiproc, 3000, 10000},
	"virtual_figs":   {runFigures, 0.95, 2},
}

// workloadOrder is the order of an all-workload run: the four workloads
// BENCHMARK.json lists, which the PR driver runs and gates, then the
// two that run by hand only (README.md, "Gated and ungated workloads").
var workloadOrder = []string{"sync_inproc", "sync_unix", "bulk_unix", "coll_tcp", "multiproc_unix", "virtual_figs"}

// ops is the timed operation count of one of reps repetitions that
// share a run of the given seconds.
func (w workload) ops(seconds float64, reps int) int {
	if n := int(w.rate * seconds / float64(reps)); n > 1 {
		return n
	}
	return 1
}

// runRep executes one repetition in this process.
func runRep(s repSpec) repResult {
	r := &rep{repSpec: s, failed: map[int]bool{}}
	r.res.Layer = map[string]float64{}
	w, ok := workloads[s.Workload]
	if !ok || s.Ops < 1 {
		r.res.Err = fmt.Sprintf("no workload %q of %d operations", s.Workload, s.Ops)
		return r.res
	}
	// Operations a run error leaves undone count as failed with those
	// whose check failed.
	r.res.Attempted = s.Ops
	if err := w.run(r); err != nil {
		r.res.Err = err.Error()
	}
	r.res.Failed = min(len(r.failed)+r.res.Attempted-r.res.Ops, r.res.Attempted)
	if r.res.MemMB == 0 {
		r.res.MemMB = maxRSSMB(syscall.RUSAGE_SELF)
	}
	if r.tr != nil {
		path := filepath.Join(s.Out, "trace-"+s.Workload+".json")
		if err := r.tr.writeChrome(path); err != nil && r.res.Err == "" {
			r.res.Err = err.Error()
		}
		probeLayers(r)
	}
	return r.res
}

// fail marks timed operation op as failed; safe from any processor.
func (r *rep) fail(op int, format string, args ...any) {
	r.failMu.Lock()
	first := len(r.failed) == 0
	r.failed[op] = true
	r.failMu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "benchmark: %s op %d: %s\n", r.Workload, op, fmt.Sprintf(format, args...))
	}
}

// scaled returns n shrunk by the repetition's scale, at least min.
func (r *rep) scaled(n, min int) int {
	if v := int(float64(n) * r.Scale); v > min {
		return v
	}
	return min
}

// startTimed marks the first timed operation: everything since the
// parent spawned this process was set-up.
func (r *rep) startTimed() {
	r.res.SetupS = float64(time.Now().UnixNano()-r.Start) / 1e9
	runtime.ReadMemStats(&r.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r.segRu) // cannot fail for RUSAGE_SELF
	r.t0 = time.Now()
	r.segT = r.t0
}

// opDone records the latency of the timed operation that just
// completed, and closes the segment it ends: segment i of a repetition
// ends with operation (i+1)·Ops/segments, so a repetition of fewer
// operations than segments has one segment per operation.
func (r *rep) opDone(latUs float64) {
	r.lat = append(r.lat, latUs)
	if len(r.lat) < (len(r.segRate)+1)*r.Ops/segments {
		return
	}
	now := time.Now()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ops := float64(len(r.lat) - r.segDone)
	r.segRate = append(r.segRate, ops/now.Sub(r.segT).Seconds())
	r.segCPU = append(r.segCPU, (cpuSeconds(ru)-cpuSeconds(r.segRu))*1e6/ops)
	r.segT, r.segRu, r.segDone = now, ru, len(r.lat)
}

// stopTimed closes the timed region after ops completed operations.
func (r *rep) stopTimed(ops int) {
	wall := time.Since(r.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r.res.Ops = ops
	r.res.WallS = wall.Seconds()
	r.res.Samples = len(r.lat)
	r.res.P50us = median(r.lat)
	r.res.OpsPerS = median(r.segRate)
	r.res.CPUusPerOp = median(r.segCPU)
	if ops > 0 {
		n := float64(ops)
		l := r.res.Layer
		l["hbsp.step_p99_us"] = percentile(r.lat, 0.99)
		l["runtime.allocs_per_op"] = float64(ms.Mallocs-r.ms0.Mallocs) / n
		l["runtime.alloc_kib_per_op"] = float64(ms.TotalAlloc-r.ms0.TotalAlloc) / 1024 / n
		l["runtime.gc_cycles"] = float64(ms.NumGC - r.ms0.NumGC)
		l["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6
	}
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the peak resident set of this process (or of its waited
// children); Linux reports ru_maxrss in KiB.
func maxRSSMB(who int) float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // cannot fail for these constants
	return float64(ru.Maxrss) / 1024
}
