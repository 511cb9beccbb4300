#!/bin/sh
# The CI gate, and the only definition of it: `make check` runs this
# script. Build, go vet, the hbspk-vet model lint suite, the tests under
# the race detector, the soaks, gates and smokes below, the coverage
# floor and a short fuzz pass. Steps that are also Makefile targets
# (gofmt, chaos, the verify smokes, the wire smoke, the superstep bench,
# cover, fuzz) are defined there once and invoked from here.
set -eux

# timed <budget-s> <label> cmd...: run one step, report its wall time
# and fail when it overran its budget.
timed() {
	budget=$1 label=$2
	shift 2
	start=$(date +%s)
	"$@"
	elapsed=$(( $(date +%s) - start ))
	echo "$label wall time: ${elapsed}s (budget ${budget}s)"
	[ "$elapsed" -le "$budget" ]
}

# `./check.sh smoke` is the quick pre-push gate: build everything, run
# a 10-iteration slice of the fabric benchmarks through the JSON
# converter, and exercise hbspk-bench's profile flags on one figure.
# Any build or run error fails the script (set -e); no timing gates.
if [ "${1:-}" = smoke ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go build ./...
	go test -run '^$' -bench 'BenchmarkSendRecv|BenchmarkMcastFanout|BenchmarkMailboxContention' \
		-benchmem -benchtime 10x ./internal/pvm/ >"$tmp/bench.txt"
	go run ./cmd/hbspk-benchjson -baseline bench/baseline_pre_pr4.txt -o "$tmp/bench.json" "$tmp/bench.txt"
	go run ./cmd/hbspk-bench -fig 3a -cpuprofile "$tmp/cpu.pprof" \
		-memprofile "$tmp/mem.pprof" -mutexprofile "$tmp/mutex.pprof" >/dev/null
	exit 0
fi

go build ./...
go vet ./...
"${MAKE:-make}" fmt

# Zero-findings gate (DESIGN.md §5.8): the full analyzer suite — SPMD
# alignment and buffer ownership included — over every package, tests
# too, must report nothing that is not under an audited //hbspk:ignore.
# Findings are also emitted as SARIF and compared against the committed
# empty baseline, so any new finding fails even if exit codes drift;
# the run must fit the 30s wall-time budget.
mkdir -p results
timed 30 "hbspk-vet sarif run" go run ./cmd/hbspk-vet -sarif results/vet.sarif ./...
new=$(grep -c '"ruleId"' results/vet.sarif || true)
base=$(grep -c '"ruleId"' bench/vet_baseline.sarif || true)
if [ "$new" -ne "$base" ]; then
	echo "hbspk-vet findings drifted from the committed baseline: $new result(s) vs $base" >&2
	exit 1
fi

go test -race ./...

# Seeded chaos smoke, as `make chaos` defines it: fault injection across
# the fabric, both engines, and the fault-tolerant collectives, under
# the race detector, rerun by name.
"${MAKE:-make}" chaos

# Seeded churn+reorg soak smoke (DESIGN.md §5.7): elastic membership
# with hashed join/leave points, a straggler burst and barrier-time
# rebalancing every third superstep, on both engines under the race
# detector — the virtual engine must reproduce itself bit-for-bit and
# the concurrent engine must agree on fold and final layout. Budgeted
# well inside 30s wall time.
timed 30 "churn+reorg soak" go test -race -count=1 -run 'ChurnReorgSoak' ./internal/hbsp/

# Static cost analysis (DESIGN.md §5.6): the analyzer suite plus the
# variantcheck advisor over the repo's non-test code on the grid tree
# must report nothing (tests deliberately exercise every variant at
# every size, so advice there is noise), and the full-suite run must
# finish inside the 30s wall-time budget.
timed 30 "hbspk-vet full-suite" go run ./cmd/hbspk-vet -skip-tests -tree grid -cost-ratio 1.2 ./...

# Static<->runtime conformance gate: every delivery observed in a real
# hbspk-sim run must be explained by an edge of the exported static
# commgraph; a forged run with an undeclared send must be rejected.
conftmp=$(mktemp -d)
go run ./cmd/hbspk-vet -commgraph-out "$conftmp/graph.json" ./...
go run ./cmd/hbspk-sim -machine grid -collective gather-hier -events-out "$conftmp/run.jsonl" >/dev/null
go run ./cmd/hbspk-vet -conform-graph "$conftmp/graph.json" -conform-events "$conftmp/run.jsonl" >/dev/null
if go run ./cmd/hbspk-vet -conform-graph cmd/hbspk-vet/testdata/conformance/graph.json \
	-conform-events cmd/hbspk-vet/testdata/conformance/events-undeclared.jsonl >/dev/null; then
	echo "conformance gate failed to reject an undeclared send" >&2
	exit 1
fi
rm -rf "$conftmp"

# Auto-tuned planner smoke (DESIGN.md §5.9): the planner benchmarks run
# through the same hbspk-benchjson gates make bench enforces — planner
# within 0.1% of the per-cell best fixed variant on modeled cost, cached
# dispatch within 5% of a direct call — plus one hbspk-sim auto run, all
# inside a 30s wall-time budget.
planner_smoke() {
	plantmp=$(mktemp -d)
	go test -run '^$' -bench 'BenchmarkPlannerSweep|BenchmarkPlannedDispatch|BenchmarkDirectDispatch|BenchmarkDecideHit' \
		-benchtime 1x ./internal/plan/ >"$plantmp/planner.txt"
	go run ./cmd/hbspk-benchjson \
		-max-metric-rel 'BenchmarkPlannerSweep/planner=BenchmarkPlannerSweep/fixedbest:model-cost:1.001,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-overhead:1.05,BenchmarkPlannedDispatch=BenchmarkDirectDispatch:dispatch-allocs:1.05' \
		-min-pairs 26 \
		-o "$plantmp/planner.json" "$plantmp/planner.txt"
	go run ./cmd/hbspk-sim -machine ucf -collective auto -n 200000 -rounds 4 -pure >/dev/null
	rm -rf "$plantmp"
}
timed 30 "planner smoke" planner_smoke

# Verification and multi-process transport smokes (DESIGN.md §5.3,
# §5.10), as `make verify` defines them: schedule exploration with the
# happens-before checker armed certifies gather, bcast-hier and
# reduce-hier under 4 seeded permutations each, the reorg property
# sweeps rerun by name, and one coordinator plus two worker OS processes
# run the verified broadcast + reduce program on hbsp.Concurrent over
# a unix socket and over TCP loopback.
timed 30 "verify smokes" "${MAKE:-make}" verify

# Wire smoke (DESIGN.md §5.10): a second each of the benchmark's small
# and 256 KiB-frame supersteps over the unix transport and of its
# collectives over TCP, oracles on.
"${MAKE:-make}" wire-smoke

# The engine rung of the benchmark ladder, as `make bench-step` defines
# it: 2000 supersteps per transport and size, reported, not gated.
timed 60 "superstep bench" "${MAKE:-make}" bench-step

# Coverage floor, as `make cover` defines it: total statement coverage
# must not drop below the baseline in bench/coverage_baseline.txt.
"${MAKE:-make}" cover

# Wire-format, frame-layer and engine-codec fuzzers, 15s each, as
# `make fuzz` lists them: CI smoke, not a campaign.
"${MAKE:-make}" fuzz FUZZTIME=15s
