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

go build ./...
go vet ./...
"${MAKE:-make}" fmt

# Every test a step names exists. A -run pattern that matches nothing
# passes with "no tests to run", so a test that moved or was renamed
# would drop out of its step in silence. Each |-separated name of every
# -run pattern in this script and the Makefile ('^$' aside) must match a
# test or fuzz target that `go test -list` finds in that command's
# packages, and each benchmark name the Makefile and bench-ab.sh run a
# benchmark.
named_tests_exist() {
	grep -hv '^[[:space:]]*#' check.sh Makefile | sed -e ':a' -e '/\\$/N' -e 's/\\\n//' -e 'ta' |
		grep -o '\(go\|$(GO)\) test [^&;"]*-run [^&;"]*' | sed "s/'//g; s/\\\$\\\$/\$/g" |
		while read -r cmd; do
			pattern=$(echo "$cmd" | sed 's/.*-run \([^ ]*\).*/\1/')
			[ "$pattern" = '^$' ] && continue
			pkgs=$(echo "$cmd" | tr ' \t' '\n\n' | grep '^\./')
			listed=$(go test -list . $pkgs | grep -v '^ok \|^? ')
			for name in $(echo "$pattern" | tr '|' ' '); do
				echo "$listed" | grep -Eq "$name" || {
					echo "check: -run name '$name' matches no test in $(echo $pkgs)" >&2
					return 1
				}
			done
		done
	# Likewise each -bench name of the Makefile and each -test.bench name
	# of bench-ab.sh, in the package the command names or runs in: a
	# renamed benchmark would leave bench-step and bench-ab measuring
	# nothing.
	grep -hv '^[[:space:]]*#' Makefile bench-ab.sh | grep -- '-\(test\.\)\{0,1\}bench ' |
		while read -r cmd; do
			name=$(echo "$cmd" | sed 's/.*-\(test\.\)\{0,1\}bench \([^ ]*\).*/\2/')
			pkg=$(echo "$cmd" | grep -o '\(\./\|\$src/\)internal/[a-z/]*' | sed 's#^\$src/#./#')
			go test -list "$name" "$pkg" | grep -q '^Benchmark' || {
				echo "check: -bench name '$name' matches no benchmark in $pkg" >&2
				return 1
			}
		done
}
named_tests_exist

# Zero-findings gate (DESIGN.md §5.8): the four analyzers of the suite —
# SPMD alignment and the communication graph included — over every
# package, tests too, must report nothing that is not under an audited
# //hbspk:ignore. hbspk-vet's exit status is the gate (1 on a finding),
# inside a 30s wall-time budget.
timed 30 "hbspk-vet run" go run ./cmd/hbspk-vet ./...

go test -race ./...

# Delivered-byte lifetime (DESIGN.md §5.4): a payload lives two Syncs and
# then recycles through the pvm wire arena, in-proc wires and socket
# frames alike, every collective's result outlives the frames it arrived
# in, and send scratch goes back to the arena only once every message
# sent from it has left (poisoned under Verify, kept while one is held).
# The pump goroutine draws frames that receiver goroutines released, so
# the tests run under the race detector, three times over; the tcp lanes
# run the unix lanes' code and are left to the run above.
timed 30 "delivered-byte lifetime" go test -race -count=3 \
	-run 'Outlive|SentSliceIsFreeAfterSync|PoolRecyclingNeverAliases|ArenaSizeClasses|UnpackWindowReleases|FuzzBatchBody|SendScratchRecyclesAfterItsMessages' \
	-skip '/tcp' ./internal/pvm/... ./internal/hbsp ./internal/collective

# Warm superstep (DESIGN.md §5.4): a task arrives at a cyclic barrier
# through the reference it holds — the barrier its name was published
# with, kept for the System's life — across idle gaps between rounds,
# which only happen above GOMAXPROCS 1, beside tasks that arrive by name;
# a halt or a cancel still reaches it, a cancel after a completed round
# latches, and the table holds exactly the names used; the task table
# grows under lookups that take no lock; and a step's times are read by
# whoever records it, across a coordinator's crash. The cyclic,
# by-reference, halt and cancel barrier tests, the task-table test and the
# step-time test, under the race detector, three times at GOMAXPROCS 1
# and 4.
timed 30 "warm superstep" go test -race -count=3 -cpu 1,4 \
	-run 'CyclicBarrier|BarrierReuseRacesRetirement|HeldBarrierRefsUnderRetirement|ArriveByRef|AnArrivalByRef|CancelBarrierAfterACompletedRound|SpawnDuringSendBatches|StepTimesFollowTheLiveCoordinator' \
	./internal/pvm ./internal/hbsp

# Loopback I/O per superstep (DESIGN.md §5.10): the senders of a step
# share one vectored write, a shared write that fails reaches every
# sender naming its own oldest destination — cut inside a read-back or a
# pumped burst alike — a follower's borrow ends when its call returns,
# the pump and the ack reader read only what they are owed, the pump acks
# an owed burst with one write and fails the link when a header disagrees
# with its owed length or an ACK does not decode — under the race
# detector, at GOMAXPROCS 1 and 4 — a warm 64 B step is read back by the
# goroutine that wrote it, one past the socket buffer is pumped, and
# bursts that alternate between the two keep every sender's order (race
# detector, -cpu 1,4); and a warm 64 B unix step makes at most 5 read and write
# system calls, a 64 KiB tcp step at most 10 and a tcp collective round
# at most 70, writing at most 60 frames: a BATCH and an ACK for each of
# its 30 Deliver calls.
timed 30 "loopback I/O per superstep" sh -c "go test -race -count=1 \
	-run 'ShareOneWrite|SeverInsideAPost|SeverInsideAGroup|EndsTheBorrow|PumpAcksAnOwedBurst|OwedLengthMismatch|OutOfOrderAck|LinkLossNames|FlushHonoursAck|MalformedAck' \
	./internal/pvm/wiretrans && go test -race -count=1 -cpu 1,4 -run 'WarmStepIsReadBackByItsWriter|PostFlushFIFO' \
	./internal/pvm/wiretrans && go test -p 1 -count=1 -run 'SyscallsPerSuperstep|CollectiveRoundSyscalls' ./internal/hbsp ./internal/collective"

# Seeded chaos smoke, as `make chaos` defines it: fault injection across
# the fabric, both engines, and the fault-tolerant collectives, under
# the race detector, rerun by name.
"${MAKE:-make}" chaos

# Seeded churn+reorg soak smoke (DESIGN.md §5.7): elastic membership
# with hashed join/leave points, a straggler burst and barrier-time
# rebalancing every third superstep on the virtual engine, which must
# reproduce itself bit-for-bit; then the same plan's leaves and
# straggler alone, with no rebalancing — the fixed membership the
# concurrent engine runs — on both engines, which must agree on the
# fold and on every finisher's Members and Failed view. Under the race
# detector, budgeted well inside 30s wall time.
timed 30 "churn+reorg soak" go test -race -count=1 -run 'ChurnReorgSoak' ./internal/hbsp/

# Auto-tuned planner (DESIGN.md §5.9), inside a 30s wall-time budget:
# the planner's gates by name — its one closed-form pick costs no more
# than the best fixed variant in each of the 96 cells on modeled cost
# (TestPlannerPicksBestFixed), cached dispatch stays within 5% of a
# direct call (TestPlannedDispatchWithinDirect), both engines pick alike
# (TestPlannedPicksAgreeAcrossEngines), every cost-table row's catalogue
# program equals the row's closed form on Virtual in every term of every
# step, paired by scope, and in the work after its last Sync
# (TestEveryRowRunsWhatItPrices) — then, from one build, an hbspk-sim
# run that dispatches through the planner and prints its decision
# table, on the flat testbed and on the grid, and every priced entry
# (the ones hbspk-predict takes) on the flat testbed, the Figure 1
# cluster and the grid at 400 KB, whose closed-form attribution must
# total 1.000.
planner_checks() {
	go test -count=1 -run 'PlannerPicksBestFixed|PlannedDispatchWithinDirect|PlannedPicksAgreeAcrossEngines|EveryRowRunsWhatItPrices' ./internal/plan ./internal/catalog
	bin=$(mktemp -d)
	go build -o "$bin" ./cmd/hbspk-sim ./cmd/hbspk-predict
	for machine in ucf grid; do
		"$bin/hbspk-sim" -machine "$machine" -collective auto -n 200000 -rounds 4 -pure
	done
	for machine in ucf figure1 grid; do
		for coll in $("$bin/hbspk-predict" -h 2>&1 | sed -n '/-collective/{n;s/ (default.*//;s/,//g;p;}'); do
			total=$("$bin/hbspk-sim" -machine "$machine" -collective "$coll" -pure -attrib |
				sed -n '/closed-form/,$p' | awk '$1 == "total" { print $NF }')
			[ "$total" = 1.000 ] || {
				echo "planner gates: $machine $coll's closed-form total reads '$total', want 1.000" >&2
				rm -rf "$bin"
				return 1
			}
		done
	done
	rm -rf "$bin"
}
timed 30 "planner gates and smokes" planner_checks

# The examples: each program under examples/ runs to completion with
# go run and exits 0. Their output is for a reader, not compared.
run_examples() {
	for dir in examples/*/; do
		go run "./$dir" >/dev/null || return 1
	done
}
timed 30 "examples" run_examples

# Verification and multi-process transport smokes (DESIGN.md §5.3,
# §5.10), as `make verify` defines them: schedule exploration with the
# happens-before checker armed certifies gather, gather-hier, bcast-hier
# and reduce-hier under 4 seeded permutations each on the flat testbed
# and on the grid and rejects the seeded order-dependent nondet-reduce,
# a seeded noisy grid run reproduces its report and
# event stream byte for byte, the reorg property sweeps rerun by name,
# and one coordinator plus two worker OS processes
# run the verified broadcast + reduce program on hbsp.Concurrent over
# a unix socket and over TCP loopback.
timed 30 "verify smokes" "${MAKE:-make}" verify

# Wire smoke (DESIGN.md §5.10): a second each of the benchmark's small
# and 256 KiB-frame supersteps over the unix transport and of its
# collectives over TCP, oracles on.
"${MAKE:-make}" wire-smoke

# The engine and collective rungs of the benchmark ladder, as the
# Makefile's bench-step target defines them: 2000 supersteps per
# transport and size, then 1000 collective rounds in-proc and over TCP,
# reported, not gated.
timed 60 "superstep bench" "${MAKE:-make}" bench-step

# Coverage floor, as `make cover` defines it: total statement coverage
# must not drop below the baseline in bench/coverage_baseline.txt.
"${MAKE:-make}" cover

# Wire-format, frame-layer and engine-codec fuzzers, 15s each, as
# `make fuzz` lists them: CI smoke, not a campaign.
"${MAKE:-make}" fuzz FUZZTIME=15s
