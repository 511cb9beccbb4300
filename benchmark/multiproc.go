package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// workerBytes is the broadcast payload of one multi-process round.
const workerBytes = 4096

// workerDeadline kills a pair of worker processes that hangs; the
// parent's own deadline on the repetition is longer.
const workerDeadline = 30 * time.Second

// workerBin is where the parent builds cmd/hbspk-worker.
func workerBin(out string) string { return filepath.Join(out, "bin", "hbspk-worker") }

// buildWorker builds cmd/hbspk-worker from the checkout's source and
// returns how long the build took.
func buildWorker(root, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", workerBin(out), "./cmd/hbspk-worker")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/hbspk-worker: %v\n%s", err, msg)
	}
	return time.Since(start), nil
}

// workerRun is what one coordinator + worker run of the CLI reported.
type workerRun struct {
	// wall is the coordinator's own "wall=" figure; total the time from
	// spawning the first process to the exit of the last.
	wall, total      time.Duration
	sent             int64
	coordCPU, allCPU float64
	maxRSSMB         float64
}

var (
	wallRE = regexp.MustCompile(`wall=(\S+)`)
	sentRE = regexp.MustCompile(`sent=(\d+)B`)
)

// runWorkers runs the built hbspk-worker as two OS processes, a
// coordinator and one worker joined by a unix socket, for the given
// number of broadcast+reduce rounds. Only the CLI's flags and its
// "verify=clean ... wall=" line are depended on. Both processes must
// exit 0 and print verify=clean before the deadline; the deadline kills
// them, and the socket directory is removed either way.
func runWorkers(bin string, rounds int, deadline time.Duration) (workerRun, error) {
	var w workerRun
	dir, err := os.MkdirTemp("", "hbspk-mp-*")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "c.sock")
	endpoint := "unix:" + sock
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	common := []string{"-nprocs", "2", "-n", strconv.Itoa(workerBytes), "-rounds", strconv.Itoa(rounds)}
	coord := exec.CommandContext(ctx, bin, append([]string{"-listen", endpoint}, common...)...)
	worker := exec.CommandContext(ctx, bin, append([]string{"-connect", endpoint, "-pid", "1"}, common...)...)
	var coordOut, workerOut bytes.Buffer
	coord.Stdout, worker.Stdout = &coordOut, &workerOut
	coord.Stderr, worker.Stderr = os.Stderr, os.Stderr

	start := time.Now()
	if err := coord.Start(); err != nil {
		return w, err
	}
	// A worker that dials before the coordinator listens sleeps 50 ms
	// and dials again; starting it once the socket exists keeps that
	// coin toss out of the coordinator's wall and out of set-up.
	for ctx.Err() == nil {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := worker.Start(); err != nil {
		cancel()
		_ = coord.Wait() // reap; the start error is the one to report
		return w, err
	}
	workerErr := worker.Wait()
	coordErr := coord.Wait()
	w.total = time.Since(start)
	if coordErr != nil || workerErr != nil {
		return w, fmt.Errorf("hbspk-worker: coordinator: %v, worker: %v", coordErr, workerErr)
	}
	for _, out := range [][]byte{coordOut.Bytes(), workerOut.Bytes()} {
		if !bytes.Contains(out, []byte("verify=clean")) {
			return w, fmt.Errorf("hbspk-worker: no verify=clean in %q", out)
		}
	}
	m := wallRE.FindSubmatch(coordOut.Bytes())
	if m == nil {
		return w, fmt.Errorf("hbspk-worker: no wall= in %q", coordOut.Bytes())
	}
	if w.wall, err = time.ParseDuration(string(m[1])); err != nil {
		return w, err
	}
	if m := sentRE.FindSubmatch(coordOut.Bytes()); m != nil {
		w.sent, _ = strconv.ParseInt(string(m[1]), 10, 64) // the regexp admits digits only
	}
	for _, cmd := range []*exec.Cmd{coord, worker} {
		st := cmd.ProcessState
		w.allCPU += (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			if mb := float64(ru.Maxrss) / 1024; mb > w.maxRSSMB {
				w.maxRSSMB = mb
			}
		}
	}
	st := coord.ProcessState
	w.coordCPU = (st.UserTime() + st.SystemTime()).Seconds()
	return w, nil
}

// runMultiproc is the multi-process workload: a short warm-up run of
// the two processes, then one timed run of the repetition's rounds. The
// timed wall is the coordinator's own figure, which the CLI rounds to a
// millisecond and which includes the wait for the worker to connect;
// CPU and peak memory come from the two processes' exit status.
func runMultiproc(r *rep) error {
	bin := workerBin(r.Out)
	if _, err := runWorkers(bin, r.scaled(500, 50), workerDeadline); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	rounds := r.Ops

	if r.Trace {
		r.tr = newTracer(1)
	}
	pt := r.tr.pid(0)
	r.startTimed()
	pt.beginOp(0)
	pt.begin("worker.run")
	run, err := runWorkers(bin, rounds, workerDeadline)
	pt.end()
	pt.end()
	if err != nil {
		return err
	}
	r.res.Ops = rounds
	r.res.WallS = run.wall.Seconds()
	r.res.MemMB = run.maxRSSMB
	// One segment and one latency sample, wall ÷ rounds: the CLI exposes
	// no per-round clock.
	r.res.Samples = 1
	r.res.OpsPerS = float64(rounds) / run.wall.Seconds()
	r.res.CPUusPerOp = run.allCPU * 1e6 / float64(rounds)
	r.res.P50us = run.wall.Seconds() * 1e6 / float64(rounds)

	if r.Trace {
		l := r.res.Layer
		l["worker.bytes_per_round"] = float64(run.sent) / float64(rounds)
		l["worker.coordinator_cpu_share"] = run.coordCPU / run.allCPU
	}
	return nil
}
