# Development entry points. `make check` is the CI gate, and the gate is
# check.sh: one definition of what must be green (build, go vet, gofmt,
# the HBSP^k model lint suite by its exit status, the race tests, the
# chaos and churn soaks, the smokes, the coverage floor, the fuzzers).
# The script calls back into the targets below for the steps they
# define. A malformed tree never merges with it green. The performance gates (modeled cost, allocation counts)
# are ordinary tests and run with the rest; wall-clock numbers live on
# one ladder, BENCHMARK.json and ./benchmark.

GO ?= go

.PHONY: check build vet fmt lint test race chaos verify wire-smoke fuzz bench-step bench-ab cover clean

check:
	./check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any tracked Go file outside the analyzers' golden
# testdata is not gofmt-clean. check.sh invokes this target.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# lint runs hbspk-vet, the four model-invariant checkers of
# internal/analysis (SPMD alignment, communication topology, dropped
# errors, lock order) and the stale-ignore sweep, over every package
# including tests. The model parameters and the delivered-payload
# lifetime are checked at run time instead: the engines call
# Tree.Validate before a run starts, and Verify poisons an expired
# delivery.
lint:
	$(GO) run ./cmd/hbspk-vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos reruns the seeded fault-injection suite by name — fabric fates,
# engine crash/shrink paths, and the fault-tolerant collective matrix —
# under the race detector. Already part of `race`; rerun by name so a
# chaos regression is unmistakable in CI. check.sh invokes this target.
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/fabric/ ./internal/hbsp/ ./internal/collective/

# verify smoke-tests the semantic checker: schedule exploration with
# the happens-before checker armed must certify gather, gather-hier,
# bcast-hier and reduce-hier delivery-order independent under 4 seeded
# permutations each — on the flat testbed and, the hierarchical three,
# on the grid, where sibling clusters step side by side — while the
# seeded order-dependent fold (nondet-reduce) must fail exploration with
# a SCHEDULE-DEPENDENT verdict, the proof the audit still bites; a noisy
# grid run repeated must reproduce its report and its event stream byte
# for byte (the virtual engine is a sequential simulation, DESIGN.md
# §5.3). The reorg property sweeps prove rebalancing preserves topology
# shape, the leaf multiset and every catalogue collective's family oracle
# (on both engines over a tree reorganized before the run), also when a
# rebalance falls due inside a collective (on the virtual engine, the one
# that reorganizes while it runs).
# The final stanza is the multi-process smoke: a coordinator and two
# worker OS processes, each an hbsp.Concurrent hosting one pid, run the
# verified broadcast + reduce program over a unix socket and then
# over TCP loopback, the workers dialing the port the coordinator's
# "listening on" line prints (DESIGN.md §5.10). check.sh invokes this
# target rather than repeating it.
verify:
	$(GO) test -count=1 -run 'TestReorganizePreservesShapeAndLeaves|TestPlanReorgDeterministic' ./internal/model/
	$(GO) test -count=1 -run 'TestSweepOnReorganizedTrees|TestSweepWithCutsDueMidCollective' ./internal/collective/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hbspk-sim" ./cmd/hbspk-sim || exit 1; \
	for run in ucf:gather ucf:gather-hier ucf:bcast-hier ucf:reduce-hier grid:gather-hier grid:bcast-hier grid:reduce-hier; do \
		"$$tmp/hbspk-sim" -machine "$${run%:*}" -collective "$${run#*:}" -n 4096 -pure -explore 4 || exit 1; \
	done; \
	out=$$("$$tmp/hbspk-sim" -machine ucf -collective nondet-reduce -explore 4) && \
		{ echo "verify: an order-dependent fold passed schedule exploration" >&2; exit 1; }; \
	echo "$$out" | grep -q SCHEDULE-DEPENDENT || \
		{ echo "$$out"; echo "verify: exploration did not name the order-dependent fold" >&2; exit 1; }; \
	for i in 1 2; do \
		"$$tmp/hbspk-sim" -machine grid -collective bcast-hier -noise 0.2 -seed 3 \
			-json "$$tmp/run$$i.json" -events-out "$$tmp/run$$i.jsonl" > /dev/null || exit 1; \
	done; \
	cmp "$$tmp/run1.json" "$$tmp/run2.json" && cmp "$$tmp/run1.jsonl" "$$tmp/run2.jsonl" || \
		{ echo "verify: two runs of one seeded grid simulation differ" >&2; exit 1; }; \
	$(GO) build -o "$$tmp/hbspk-worker" ./cmd/hbspk-worker || exit 1; \
	"$$tmp/hbspk-worker" -listen "unix:$$tmp/coord.sock" -nprocs 3 & c=$$!; \
	"$$tmp/hbspk-worker" -connect "unix:$$tmp/coord.sock" -pid 1 -nprocs 3 & w1=$$!; \
	"$$tmp/hbspk-worker" -connect "unix:$$tmp/coord.sock" -pid 2 -nprocs 3 & w2=$$!; \
	wait "$$c" && wait "$$w1" && wait "$$w2" || exit 1; \
	"$$tmp/hbspk-worker" -listen tcp:127.0.0.1:0 -nprocs 3 > "$$tmp/coord.out" & c=$$!; \
	addr=; for i in $$(seq 100); do \
		addr=$$(sed -n 's/.*listening on tcp:\([^ ]*\) .*/\1/p' "$$tmp/coord.out"); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { kill "$$c"; echo "verify: the tcp coordinator never listened" >&2; exit 1; }; \
	"$$tmp/hbspk-worker" -connect "tcp:$$addr" -pid 1 -nprocs 3 & w1=$$!; \
	"$$tmp/hbspk-worker" -connect "tcp:$$addr" -pid 2 -nprocs 3 & w2=$$!; \
	wait "$$c" && wait "$$w1" && wait "$$w2" && cat "$$tmp/coord.out"

# wire-smoke runs one second of the wall-clock benchmark over each
# socket transport — the all-to-all superstep on unix at 64 B and at
# 256 KiB per pair (small frames, then frames a socket buffer cannot
# hold), the collective rounds on TCP — every output checked against
# its oracle. A non-zero exit or a single failed operation fails the
# step. check.sh invokes this target rather than repeating it.
wire-smoke:
	@for w in sync_unix bulk_unix coll_tcp; do \
		out=$$($(GO) run ./benchmark -workload $$w -seconds 1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"failed":0[,}]' || \
			{ echo "$$out"; echo "wire-smoke: $$w reported failed operations" >&2; exit 1; }; \
		echo "wire-smoke: $$w ok"; \
	done

# bench-step runs the engine rung of the ladder: one all-to-all root
# superstep of four processors on Concurrent — in-proc, over a unix socket
# and over TCP loopback, at 64 B, 64 KiB and 256 KiB per pair (the last is
# bulk_unix's size), with allocs/op, and on the 64 B lanes retained-B/op,
# the live heap a step leaves behind (the step record), and report-B/op,
# the live heap the returned Report holds per step — the Go-benchmark
# twin of the sync and bulk workloads of ./benchmark, at the GOMAXPROCS =
# 1 that harness pins every repetition to (-cpu 1), the socket lanes with
# syscalls/op, the read and write system calls of a step, and reads/op
# and writes/op apart — and two empty
# supersteps in-proc,
# inproc/0B/cluster (a level-1 Sync of one two-leaf cluster) and
# inproc/0B/root: the model's L_{1,j} and L_{2,0} as this substrate
# defines them. Then the collective rung: BenchmarkCollectiveRound, one
# round of coll_tcp's five collectives at 64 KiB each, in-proc and over
# TCP loopback (with wire-B/op, the frame bytes a round writes, and
# syscalls/op, reads/op and writes/op). No gate of
# their own (TestSteadyStateSuperstepAllocs, TestCollectiveRoundAllocsInProc
# and the collectives' *AllocatesItsResultOnce tests hold the allocation
# ceilings, TestLoopbackSyscallsPerSuperstep and TestCollectiveRoundSyscalls
# the system-call and frame ones); check.sh
# invokes this target so the rungs compile and run.
bench-step:
	$(GO) test -run '^$$' -bench ConcurrentSuperstep -benchtime 2000x -benchmem -cpu 1 ./internal/hbsp
	$(GO) test -run '^$$' -bench CollectiveRound -benchtime 1000x -benchmem -cpu 1 ./internal/collective

# bench-ab is the evidence of a performance change: the bench-step lanes
# of BASE and of the working tree, alternated N times (default 15) with an
# A/A lane, medians, quartiles, win counts and counters in one JSON file,
# OUT (default bench/BENCH_AB.json). bench-ab.sh says how a lane passes.
# It measures wall clock, so check.sh leaves it out.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [OUT=file.json] [N=15]" >&2; exit 2; }
	N=$(N) ./bench-ab.sh $(BASE) $(or $(OUT),bench/BENCH_AB.json)

# cover enforces the coverage floor: total statement coverage must not
# drop below bench/coverage_baseline.txt (percent, one line). The
# profile lands in bench/cover.out for go tool cover -html browsing.
# check.sh invokes this target.
cover:
	$(GO) test -coverprofile=bench/cover.out ./...
	@total=$$($(GO) tool cover -func=bench/cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat bench/coverage_baseline.txt); \
	echo "total coverage $${total}% (floor $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $${total}% fell below the $${floor}% floor"; exit 1; }

# fuzz gives each pvm wire-format, wiretrans frame-layer, pump, handshake,
# hub barrier-body and engine message-codec fuzzer a short budget; CI
# smoke, not a campaign.
# check.sh invokes this target rather than keeping a list of its own.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/pvm/ -run '^$$' -fuzz FuzzBufferRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/ -run '^$$' -fuzz FuzzUnpack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzBatchBody -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzAckBody -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzPumpBurst -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzHandshake -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pvm/wiretrans/ -run '^$$' -fuzz FuzzBarrierBody -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hbsp/ -run '^$$' -fuzz FuzzUnpackMsg -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
