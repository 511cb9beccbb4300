#!/bin/sh
# bench-ab.sh: an alternated A/B of the engine and collective rungs of
# the benchmark ladder (the lanes `make bench-step` runs) between a base
# revision and the working tree, written to one JSON file.
#
#   ./bench-ab.sh <base-rev> [out.json]        N=15 rounds unless N is set
#   make bench-ab BASE=<rev> [OUT=out.json] [N=15]
#
# Both sides are `go test -c` binaries of ./internal/hbsp and
# ./internal/collective: the base built from `git archive <base-rev>` in a
# temporary directory, the change from the working tree. Each round runs
# BenchmarkConcurrentSuperstep (2000x) and BenchmarkCollectiveRound
# (1000x) at -cpu 1 — the GOMAXPROCS the wall-clock harness pins — once
# on the base, once on the change and once more on the change (the A/A
# lane: what the same binary measures against itself), in ABBA order:
# base, change, A/A in odd rounds, the reverse in even ones.
#
# Per lane the file holds the base and change medians and quartiles of
# ns/op, their ratio (change/base, below 1 is faster), the rounds the
# change won, the A/A ratio (its median over the change's) and the A/A
# spread (the quartiles of the per-round A/A ratios), and the medians of
# the deterministic counters on each side: allocs/op, B/op,
# retained-B/op, report-B/op, syscalls/op, reads/op, writes/op and
# wire-B/op, where a lane reports them. A lane's verdict is "faster" when
# the change won at least 9 rounds in 10, its ratio lies below the A/A
# spread and its median is below the base's by more than the base's own
# quartile distance; "slower" in the mirror case; "within A/A spread" when the
# ratio lies inside it; and "unresolved" otherwise. It passes when faster
# or within the spread.
#
# The counters barely move between runs, so the change's are also held
# to those of the newest bench/BENCH_PR<n>.json other than the output:
# a counter that rose past its tolerance, and past half the last digit
# that file printed, is listed under the lane's "rises" and fails the
# script once the file is written. The tolerances are the margins of the
# ceiling tests: allocs/op 1 % (a warm step's 0 stays 0:
# TestSteadyStateSuperstepAllocs), B/op 16 KiB (allocSlack and
# TestCollectiveRoundAllocsInProc), retained-B/op 16 B (the step record's
# 48 B ceiling over its 32 B), report-B/op 16 B (a Report's step, 40 B,
# as the record's margin), syscalls/op, reads/op and writes/op 1
# (TestLoopbackSyscallsPerSuperstep's 5 over 4.1) and wire-B/op 0
# (TestCollectiveRoundSyscalls pins the round's bytes).
#
# Wall-clock numbers move with the host, so this is not part of check.sh.
set -eu

base=${1:?usage: bench-ab.sh <base-rev> [out.json]}
out=${2:-bench/BENCH_AB.json}
rounds=${N:-15}
repo=$(git rev-parse --show-toplevel)
baserev=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$baserev" | tar -x -C "$tmp/base"
for side in base change; do
	src=$repo
	[ "$side" = base ] && src=$tmp/base
	(cd "$src" && go test -c -o "$tmp/$side.hbsp" ./internal/hbsp && go test -c -o "$tmp/$side.coll" ./internal/collective)
done

# run <side> <binary-side> <round>: one pass of both rungs, one line per
# benchmark result: side, round, lane, then its value-unit pairs.
run() {
	src=$repo
	[ "$2" = base ] && src=$tmp/base
	{
		(cd "$src/internal/hbsp" && "$tmp/$2.hbsp" -test.run '^$' -test.bench ConcurrentSuperstep -test.benchtime 2000x -test.benchmem -test.cpu 1)
		(cd "$src/internal/collective" && "$tmp/$2.coll" -test.run '^$' -test.bench CollectiveRound -test.benchtime 1000x -test.benchmem -test.cpu 1)
	} | awk -v side="$1" -v round="$3" '/^Benchmark/ { sub(/^Benchmark/, "", $1); $2 = ""; print side, round, $0 }' >>"$tmp/runs"
}

i=1
while [ "$i" -le "$rounds" ]; do
	echo "bench-ab: round $i of $rounds" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run base base "$i"
		run change change "$i"
		run aa change "$i"
	else
		run aa change "$i"
		run change change "$i"
		run base base "$i"
	fi
	i=$((i + 1))
done

# prev is the newest committed evidence file, by PR number; its lanes'
# counters, one "lane unit value" line each, go to $tmp/prev.
prev=$(ls "$repo"/bench/BENCH_PR*.json 2>/dev/null | grep -vxF "$(realpath -m "$out")" |
	sed 's/.*BENCH_PR\([0-9]*\)\.json$/\1 &/' | sort -n | tail -n 1 | cut -d' ' -f2-)
: >"$tmp/prev"
[ -n "$prev" ] && awk '
	/"lane":/ { split($0, q, "\""); lane = q[4] }
	/"counters":/ {
		sub(/.*"change": \{/, ""); sub(/\}.*/, "")
		n = split($0, kv, ", ")
		for (i = 1; i <= n; i++) { split(kv[i], p, "\": "); sub(/^"/, "", p[1]); print lane, p[1], p[2] }
	}' "$prev" >"$tmp/prev"

head=$(git rev-parse HEAD)
dirty=false
[ -n "$(git status --porcelain --untracked-files=no)" ] && dirty=true
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)

status=0
awk -v baserev="$baserev" -v head="$head" -v dirty="$dirty" -v rounds="$rounds" -v prev="${prev#"$repo"/}" \
	-v cpu="$cpu" -v ncpu="$(getconf _NPROCESSORS_ONLN)" -v gover="$(go env GOVERSION)" '
# sort v[1..n] ascending (insertion sort: n is a few dozen at most)
function sortv(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--)
			v[j + 1] = v[j]
		v[j + 1] = x
	}
}
# the p-quantile of sorted v[1..n], interpolated
function q(v, n, p,    h, lo) {
	h = 1 + p * (n - 1)
	lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# the p-quantile of a unit on one side over the rounds, "" if never reported
function quant(side, lane, unit, p,    v, n, r) {
	n = 0
	for (r = 1; r <= rounds; r++)
		if ((side, lane, r, unit) in val)
			v[++n] = val[side, lane, r, unit]
	if (n == 0)
		return ""
	sortv(v, n)
	return q(v, n, p)
}
function median(side, lane, unit) { return quant(side, lane, unit, 0.5) }
function stats(side, lane) {
	return sprintf("{\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}", median(side, lane, "ns/op"),
		quant(side, lane, "ns/op", 0.25), quant(side, lane, "ns/op", 0.75))
}
function counters(side, lane,    s, u, m, sep) {
	s = "{"
	sep = ""
	for (u = 1; u <= ncounters; u++) {
		m = median(side, lane, counter[u])
		if (m != "") {
			s = s sep sprintf("\"%s\": %.7g", counter[u], m)
			sep = ", "
		}
	}
	return s "}"
}
# half the unit of the last digit of a printed number
function halfdigit(s,    e, d) {
	e = 0
	if (match(s, /[eE]/)) {
		e = substr(s, RSTART + 1) + 0
		s = substr(s, 1, RSTART - 1)
	}
	d = index(s, ".") ? length(s) - index(s, ".") : 0
	return 0.5 * 10 ^ (e - d)
}
# the counters of the change that rose past those of the previous file, as JSON
function rises(lane,    s, u, m, was, sep) {
	s = "["
	sep = ""
	for (u = 1; u <= ncounters; u++) {
		m = median("change", lane, counter[u])
		if (m == "" || !((lane, counter[u]) in before))
			continue
		was = before[lane, counter[u]]
		if (m > was + abstol[counter[u]] + reltol[counter[u]] * was + halfdigit(was)) {
			s = s sep sprintf("{\"counter\": \"%s\", \"was\": %s, \"now\": %.7g}", counter[u], was, m)
			sep = ", "
			nrises++
			printf "bench-ab: %s %s rose from %s to %.7g (%s)\n", lane, counter[u], was, m, prev >"/dev/stderr"
		}
	}
	return s "]"
}
FILENAME == ARGV[1] {
	before[$1, $2] = $3
	next
}
{
	side = $1; round = $2; lane = $3
	if (!(lane in seen)) {
		seen[lane] = 1
		order[++nlanes] = lane
	}
	for (f = 4; f < NF; f += 2)
		val[side, lane, round, $(f + 1)] = $f
}
END {
	ncounters = split("allocs/op B/op retained-B/op report-B/op syscalls/op reads/op writes/op wire-B/op", counter, " ")
	reltol["allocs/op"] = 0.01
	abstol["B/op"] = 16384
	abstol["retained-B/op"] = abstol["report-B/op"] = 16
	abstol["syscalls/op"] = abstol["reads/op"] = abstol["writes/op"] = 1
	printf "{\n  \"base\": \"%s\",\n  \"change\": \"%s%s\",\n", baserev, head, dirty == "true" ? " plus uncommitted changes" : ""
	printf "  \"rounds\": %d,\n  \"order\": \"ABBA, each round base, change and A/A (the change again)\",\n", rounds
	printf "  \"cpu\": \"-cpu 1 on %s, %d CPUs online, %s\",\n", cpu, ncpu, gover
	printf "  \"rule\": \"faster: change won >= 9 in 10 rounds, ratio below the A/A spread and medians apart by more than the base quartile distance; slower: the mirror; pass: faster or ratio within the A/A spread\",\n"
	printf "  \"counters_held_to\": \"%s\",\n", prev
	printf "  \"lanes\": [\n"
	for (l = 1; l <= nlanes; l++) {
		lane = order[l]
		wins = 0; pairs = 0; na = 0
		split("", aa)
		for (r = 1; r <= rounds; r++) {
			if (!(("base", lane, r, "ns/op") in val) || !(("change", lane, r, "ns/op") in val))
				continue
			pairs++
			if (val["change", lane, r, "ns/op"] < val["base", lane, r, "ns/op"])
				wins++
			if (("aa", lane, r, "ns/op") in val)
				aa[++na] = val["aa", lane, r, "ns/op"] / val["change", lane, r, "ns/op"]
		}
		sortv(aa, na)
		lo = q(aa, na, 0.25); hi = q(aa, na, 0.75)
		bm = median("base", lane, "ns/op"); cm = median("change", lane, "ns/op")
		iqr = quant("base", lane, "ns/op", 0.75) - quant("base", lane, "ns/op", 0.25)
		ratio = cm / bm
		if (10 * wins >= 9 * pairs && ratio < lo && bm - cm > iqr)
			verdict = "faster"
		else if (10 * (pairs - wins) >= 9 * pairs && ratio > hi && cm - bm > iqr)
			verdict = "slower"
		else if (ratio >= lo && ratio <= hi)
			verdict = "within A/A spread"
		else
			verdict = "unresolved"
		printf "    {\n      \"lane\": \"%s\",\n      \"unit\": \"ns/op\",\n", lane
		printf "      \"base\": %s,\n      \"change\": %s,\n", stats("base", lane), stats("change", lane)
		printf "      \"ratio\": %.4f,\n      \"wins\": %d,\n      \"pairs\": %d,\n", ratio, wins, pairs
		printf "      \"aa_ratio\": %.4f,\n      \"aa_spread\": [%.4f, %.4f],\n", median("aa", lane, "ns/op") / median("change", lane, "ns/op"), lo, hi
		printf "      \"counters\": {\"base\": %s, \"change\": %s},\n", counters("base", lane), counters("change", lane)
		printf "      \"rises\": %s,\n", rises(lane)
		printf "      \"verdict\": \"%s\",\n      \"pass\": %s\n    }%s\n", verdict, verdict == "faster" || verdict == "within A/A spread" ? "true" : "false", l < nlanes ? "," : ""
	}
	printf "  ]\n}\n"
	if (nrises > 0)
		exit 3
}' "$tmp/prev" "$tmp/runs" >"$out" || status=$?
echo "bench-ab: wrote $out" >&2
[ "$status" -eq 0 ] || echo "bench-ab: counters rose past those of $prev" >&2
exit "$status"
