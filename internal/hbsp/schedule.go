package hbsp

import (
	"fmt"
	"sort"
	"strings"

	"hbspk/internal/trace"
)

// Schedule exploration (DESIGN.md §5.3): the Virtual engine can replay
// a program under n deterministic delivery-order permutations and diff
// the observable final states. Permutation 0 is the canonical sorted
// order every normal run uses; permutation i > 0 shuffles each
// superstep's deliveries with a seeded generator. The HBSP^k promise is
// that a super^i-step's outcome is independent of message timing, so a
// correct program fingerprints identically under every permutation; a
// diff names the first processor, superstep and message (or saved
// state) where the outcomes diverge.

// deliveryRec is one message as a processor observed it: the global
// superstep it was delivered at, its identity, and a content hash.
type deliveryRec struct {
	step, src, tag, n int
	sum               uint64
}

func (d deliveryRec) String() string {
	return fmt.Sprintf("step=%d src=%d tag=%d len=%d sum=%016x", d.step, d.src, d.tag, d.n, d.sum)
}

// runRecord captures one run's observable state: per-processor delivery
// streams and the final value of every Save()d key.
type runRecord struct {
	streams [][]deliveryRec
	saves   []map[string][]byte
}

func newRunRecord(p int) *runRecord {
	return &runRecord{streams: make([][]deliveryRec, p), saves: make([]map[string][]byte, p)}
}

func (r *runRecord) noteDelivery(pid int, d deliveryRec) {
	r.streams[pid] = append(r.streams[pid], d)
}

// canonical returns the per-processor delivery streams with each
// superstep's deliveries sorted into a canonical order. Permuting the
// delivery order within a superstep is exactly what exploration does on
// purpose, so streams compare as per-step multisets: a correct program
// delivers the same messages at the same steps under every schedule,
// and only a program whose sends depend on arrival order produces a
// different canonical stream.
func (r *runRecord) canonical() [][]deliveryRec {
	out := make([][]deliveryRec, len(r.streams))
	for pid, stream := range r.streams {
		s := append([]deliveryRec(nil), stream...)
		sort.Slice(s, func(a, b int) bool {
			if s[a].step != s[b].step {
				return s[a].step < s[b].step
			}
			if s[a].src != s[b].src {
				return s[a].src < s[b].src
			}
			if s[a].tag != s[b].tag {
				return s[a].tag < s[b].tag
			}
			if s[a].n != s[b].n {
				return s[a].n < s[b].n
			}
			return s[a].sum < s[b].sum
		})
		out[pid] = s
	}
	return out
}

// fingerprint folds the record into one comparable hash, insensitive to
// delivery order within a superstep.
func (r *runRecord) fingerprint() uint64 {
	h := payloadSum(nil)
	mix := func(vs ...uint64) {
		const prime64 = 1099511628211
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xFF
				h *= prime64
			}
		}
	}
	for pid, stream := range r.canonical() {
		for _, d := range stream {
			mix(uint64(pid), uint64(d.step), uint64(d.src), uint64(d.tag), uint64(d.n), d.sum)
		}
	}
	for pid, m := range r.saves {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mix(uint64(pid), payloadSum([]byte(k)), payloadSum(m[k]))
		}
	}
	return h
}

// ScheduleRun is the outcome of one delivery-order permutation.
type ScheduleRun struct {
	// Perm is the permutation index; 0 is the canonical order.
	Perm int
	// Fingerprint hashes the run's observable state: every processor's
	// delivery stream plus its final Save()d values.
	Fingerprint uint64
	// Err is the run's program error, if any.
	Err error
	// Report is the run's superstep report.
	Report *trace.Report

	rec *runRecord
}

// ScheduleSet is the outcome of RunSchedules over every permutation.
type ScheduleSet struct {
	Seed int64
	Runs []ScheduleRun
}

// Agree reports whether every permutation produced the same
// fingerprint and error outcome as the canonical run.
func (s *ScheduleSet) Agree() bool {
	if len(s.Runs) == 0 {
		return true
	}
	base := s.Runs[0]
	for _, r := range s.Runs[1:] {
		if r.Fingerprint != base.Fingerprint || (r.Err == nil) != (base.Err == nil) {
			return false
		}
	}
	return true
}

// Diff describes the first divergence between the canonical run and a
// permutation: which processor, which superstep, which delivery or
// saved key differs. Empty when every permutation agrees.
func (s *ScheduleSet) Diff() string {
	if len(s.Runs) == 0 {
		return ""
	}
	base := s.Runs[0]
	for _, r := range s.Runs[1:] {
		if r.Fingerprint == base.Fingerprint && (r.Err == nil) == (base.Err == nil) {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "perm %d (seed %d) diverges from the canonical order:", r.Perm, s.Seed)
		if (r.Err == nil) != (base.Err == nil) {
			fmt.Fprintf(&b, " error outcome differs (canonical: %v, perm: %v)", base.Err, r.Err)
			return b.String()
		}
		diffRecords(&b, base.rec, r.rec)
		return b.String()
	}
	return ""
}

func diffRecords(b *strings.Builder, base, perm *runRecord) {
	if base == nil || perm == nil {
		fmt.Fprintf(b, " fingerprints differ (no records kept)")
		return
	}
	baseStreams, permStreams := base.canonical(), perm.canonical()
	for pid := range baseStreams {
		bs, ps := baseStreams[pid], permStreams[pid]
		n := len(bs)
		if len(ps) < n {
			n = len(ps)
		}
		for i := 0; i < n; i++ {
			if bs[i] != ps[i] {
				fmt.Fprintf(b, " p%d delivery %d: canonical {%s} vs permuted {%s}", pid, i, bs[i], ps[i])
				return
			}
		}
		if len(bs) != len(ps) {
			fmt.Fprintf(b, " p%d delivered %d messages canonically vs %d permuted", pid, len(bs), len(ps))
			return
		}
	}
	for pid := range base.saves {
		keys := map[string]bool{}
		for k := range base.saves[pid] {
			keys[k] = true
		}
		for k := range perm.saves[pid] {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			bv, bok := base.saves[pid][k]
			pv, pok := perm.saves[pid][k]
			if bok != pok || string(bv) != string(pv) {
				fmt.Fprintf(b, " p%d saved state %q: canonical %d bytes (sum %016x) vs permuted %d bytes (sum %016x)",
					pid, k, len(bv), payloadSum(bv), len(pv), payloadSum(pv))
				return
			}
		}
	}
	fmt.Fprintf(b, " fingerprints differ but records match (hash collision?)")
}

// RunSchedules replays the program under n delivery-order permutations
// (permutation 0 canonical, the rest seeded shuffles) and returns the
// per-permutation outcomes for equivalence checking. The engine's
// configuration — chaos plan, verification, reorganization — applies to
// every replay. The error return covers only harness misuse; program
// errors land in each ScheduleRun.
func (v *Virtual) RunSchedules(prog Program, n int, seed int64) (*ScheduleSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hbsp: RunSchedules with n=%d permutations", n)
	}
	set := &ScheduleSet{Seed: seed}
	p := v.tree.NProcs()
	// A run with reorganization enabled mutates the tree's layout; every
	// replay must start from the pristine one or later permutations
	// would explore a different machine. The layout is restored again
	// after the last replay so the caller's tree is untouched.
	layout := v.tree.SaveLayout()
	for perm := 0; perm < n; perm++ {
		v.tree.RestoreLayout(layout)
		v.permIndex = perm
		v.permSeed = seed
		v.rec = newRunRecord(p)
		rep, err := v.Run(prog)
		run := ScheduleRun{Perm: perm, Err: err, Report: rep, rec: v.rec,
			Fingerprint: v.rec.fingerprint()}
		v.permIndex, v.permSeed, v.rec = 0, 0, nil
		set.Runs = append(set.Runs, run)
	}
	v.tree.RestoreLayout(layout)
	return set, nil
}

// shuffleDeliver applies the deterministic permutation for (seed, perm,
// step) to one superstep's deliveries: a Fisher–Yates shuffle driven by
// splitmix64, identical on every replay.
func shuffleDeliver(ms []pendingMsg, seed int64, perm, step int) {
	state := uint64(seed)*0x9E3779B97F4A7C15 + uint64(perm)*0xBF58476D1CE4E5B9 + uint64(step)*0x94D049BB133111EB + 1
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := len(ms) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		ms[i], ms[j] = ms[j], ms[i]
	}
}
