package model

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// shapeSig serializes the tree's topology shape — fanouts in position
// order, ignoring which machine occupies which slot.
func shapeSig(m *Machine) string {
	var b strings.Builder
	var walk func(m *Machine)
	walk = func(m *Machine) {
		b.WriteByte('(')
		for _, c := range m.Children {
			walk(c)
		}
		b.WriteByte(')')
	}
	walk(m)
	return b.String()
}

func leafNames(t *Tree) []string {
	var names []string
	for _, l := range t.Root.Leaves() {
		names = append(names, l.Name)
	}
	sort.Strings(names)
	return names
}

func TestRerankerEWMA(t *testing.T) {
	r := NewReranker(3)
	if _, ok := r.Estimate(1); ok {
		t.Fatal("estimate before any observation")
	}
	r.Observe(1, 4)
	if e, ok := r.Estimate(1); !ok || e != 4 {
		t.Fatalf("first sample should seed the estimate, got %v %v", e, ok)
	}
	r.Observe(1, 2)
	if e, _ := r.Estimate(1); e != 3 {
		t.Fatalf("EWMA(0.5) of 4 then 2 = 3, got %v", e)
	}
	// Garbage samples and out-of-range pids are ignored.
	r.Observe(1, 0)
	r.Observe(1, math.NaN())
	r.Observe(1, math.Inf(1))
	r.Observe(-1, 5)
	r.Observe(99, 5)
	if e, _ := r.Estimate(1); e != 3 {
		t.Fatalf("garbage samples must not move the estimate, got %v", e)
	}
	est := r.Estimates()
	if est[0] != 0 || est[1] != 3 || est[2] != 0 {
		t.Fatalf("Estimates() = %v, want [0 3 0]", est)
	}
}

func TestPlanReorgDeterministic(t *testing.T) {
	tr := UCFTestbed()
	est := make([]float64, tr.NProcs())
	for pid := range est {
		est[pid] = 1 + float64((pid*7)%5)
	}
	a := PlanReorg(tr, est, 42, 3)
	b := PlanReorg(tr, est, 42, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical inputs gave different plans:\n%+v\n%+v", a, b)
	}
	c := PlanReorg(tr, est, 43, 3)
	if reflect.DeepEqual(a.Slots, c.Slots) {
		// Different seeds may legitimately coincide when no ties exist,
		// but with these estimates several leaves tie; require the seed
		// to matter somewhere across epochs.
		d := PlanReorg(tr, nil, 43, 3)
		e := PlanReorg(tr, nil, 44, 3)
		if reflect.DeepEqual(d.Slots, e.Slots) && reflect.DeepEqual(a.Slots, c.Slots) {
			t.Log("seed did not change any assignment (no ties); acceptable")
		}
	}
}

func TestReorganizePreservesShapeAndLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tr := RandomTree(rng, 3, 4)
		shape := shapeSig(tr.Root)
		names := leafNames(tr)
		pidName := make([]string, tr.NProcs())
		for pid, l := range tr.Leaves() {
			pidName[pid] = l.Name
		}

		est := make([]float64, tr.NProcs())
		for pid := range est {
			if rng.Intn(2) == 0 {
				est[pid] = 0.5 + 4*rng.Float64()
			}
		}
		plan := PlanReorg(tr, est, int64(trial), 1)
		if err := tr.Reorganize(plan); err != nil {
			t.Fatalf("trial %d: Reorganize: %v", trial, err)
		}

		if got := shapeSig(tr.Root); got != shape {
			t.Fatalf("trial %d: topology shape changed:\n before %s\n after  %s", trial, shape, got)
		}
		if got := leafNames(tr); !reflect.DeepEqual(got, names) {
			t.Fatalf("trial %d: leaf multiset changed: %v -> %v", trial, names, got)
		}
		for pid, l := range tr.Leaves() {
			if l.Name != pidName[pid] {
				t.Fatalf("trial %d: pid %d renamed %s -> %s", trial, pid, pidName[pid], l.Name)
			}
			if tr.Pid(l) != pid {
				t.Fatalf("trial %d: pid map inconsistent for %s", trial, l.Name)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: reorganized tree invalid: %v", trial, err)
		}
	}
}

func TestReorganizeSharesInverseToEstimate(t *testing.T) {
	tr := Homogeneous(4, 10)
	est := []float64{1, 2, 4, 8}
	plan := PlanReorg(tr, est, 1, 1)
	if err := tr.Reorganize(plan); err != nil {
		t.Fatal(err)
	}
	// Shares ∝ 1/est: 8/15, 4/15, 2/15, 1/15.
	want := []float64{8.0 / 15, 4.0 / 15, 2.0 / 15, 1.0 / 15}
	for pid, l := range tr.Leaves() {
		if math.Abs(l.Share-want[pid]) > 1e-12 {
			t.Fatalf("pid %d share %v, want %v", pid, l.Share, want[pid])
		}
		if l.EstComp != est[pid] {
			t.Fatalf("pid %d EstComp %v, want %v", pid, l.EstComp, est[pid])
		}
	}
	// The fastest measured leaf must occupy the first canonical slot.
	first := tr.slotOrder()[0]
	if got := tr.Pid(first.parent.Children[first.child]); got != 0 {
		t.Fatalf("fastest leaf (pid 0) should hold the first slot, got pid %d", got)
	}
}

func TestReorganizeRankingUsesEstimates(t *testing.T) {
	tr := Homogeneous(4, 10)
	if tr.Rank(tr.Leaf(3)) == 0 {
		t.Skip("degenerate ranking")
	}
	est := []float64{4, 3, 2, 1} // pid 3 measured fastest
	plan := PlanReorg(tr, est, 9, 1)
	if err := tr.Reorganize(plan); err != nil {
		t.Fatal(err)
	}
	if got := tr.RankedLeaves()[0]; tr.Pid(got) != 3 {
		t.Fatalf("rank 0 after reorg = pid %d, want 3", tr.Pid(got))
	}
	if r := tr.Rank(tr.Leaf(3)); r != 0 {
		t.Fatalf("Rank(pid 3) = %d, want 0", r)
	}
}

func TestSaveRestoreLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tr := RandomTree(rng, 3, 4)
		before := tr.Clone()
		layout := tr.SaveLayout()

		est := make([]float64, tr.NProcs())
		for pid := range est {
			est[pid] = 0.5 + 3*rng.Float64()
		}
		if err := tr.Reorganize(PlanReorg(tr, est, int64(trial), 1)); err != nil {
			t.Fatal(err)
		}
		tr.RestoreLayout(layout)

		if got, want := tr.String(), before.String(); got != want {
			t.Fatalf("trial %d: restore did not reproduce the layout:\n%s\nwant:\n%s", trial, got, want)
		}
		for pid := range tr.Leaves() {
			if tr.Leaf(pid).Name != before.Leaf(pid).Name {
				t.Fatalf("trial %d: pid %d maps to %s, want %s",
					trial, pid, tr.Leaf(pid).Name, before.Leaf(pid).Name)
			}
			if tr.Leaf(pid).EstComp != before.Leaf(pid).EstComp {
				t.Fatalf("trial %d: pid %d EstComp not restored", trial, pid)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: restored tree invalid: %v", trial, err)
		}
	}
}

func TestClonePreservesPidsAfterReorg(t *testing.T) {
	tr := UCFTestbed()
	est := make([]float64, tr.NProcs())
	for pid := range est {
		est[pid] = float64(tr.NProcs() - pid)
	}
	if err := tr.Reorganize(PlanReorg(tr, est, 5, 1)); err != nil {
		t.Fatal(err)
	}
	c := tr.Clone()
	for pid := range tr.Leaves() {
		if c.Leaf(pid).Name != tr.Leaf(pid).Name {
			t.Fatalf("clone pid %d = %s, want %s", pid, c.Leaf(pid).Name, tr.Leaf(pid).Name)
		}
	}
}

func TestRankMemoInvalidation(t *testing.T) {
	tr := UCFTestbed()
	r1 := tr.RankedLeaves()
	r2 := tr.RankedLeaves()
	if &r1[0] != &r2[0] {
		t.Fatal("RankedLeaves should return the memoized slice")
	}
	// Mutate + Normalize (the documented invalidation path).
	tr.RankedLeaves()[len(r1)-1].CompSlowdown = 0.01
	tr.Normalize()
	if got := tr.RankedLeaves()[0]; got.CompSlowdown != 1 {
		t.Fatalf("memo not invalidated by Normalize: rank 0 comp=%v", got.CompSlowdown)
	}
	for i, l := range tr.RankedLeaves() {
		if tr.Rank(l) != i {
			t.Fatalf("Rank(%s) = %d, want %d", l.Name, tr.Rank(l), i)
		}
	}
	if tr.Rank(tr.Root) != -1 {
		t.Fatal("Rank of a non-leaf should be -1")
	}
}

// freshLeaves is the recursive walk Machine.Leaves does outside a tree,
// written out here so the record is checked against something that
// cannot read it.
func freshLeaves(m *Machine) []*Machine {
	if m.IsLeaf() {
		return []*Machine{m}
	}
	var out []*Machine
	for _, c := range m.Children {
		out = append(out, freshLeaves(c)...)
	}
	return out
}

// checkScopeFacts holds every machine's recorded leaves, member pids and
// label to a fresh walk, a fresh sort and a fresh Sprintf, and every
// recorded leaf to this tree's own pid table.
func checkScopeFacts(t *testing.T, tr *Tree, stage string) {
	t.Helper()
	tr.Root.Walk(func(m *Machine) {
		want := freshLeaves(m)
		if got := m.Leaves(); !reflect.DeepEqual(got, want) || (len(got) > 0 && got[0] != want[0]) {
			t.Fatalf("%s: %s records %d leaves, a fresh walk finds %d (or others)", stage, m.Name, len(got), len(want))
		}
		pids := make([]int, len(want))
		for i, l := range want {
			pids[i] = tr.Pid(l)
			if pids[i] < 0 || tr.Leaf(pids[i]) != m.Leaves()[i] {
				t.Fatalf("%s: %s records leaf %s, which is not this tree's pid %d", stage, m.Name, l.Name, pids[i])
			}
		}
		sort.Ints(pids)
		if got := m.Pids(); !reflect.DeepEqual(got, pids) {
			t.Fatalf("%s: %s records pids %v, want %v", stage, m.Name, got, pids)
		}
		if got, want := m.Label(), fmt.Sprintf("M_{%d,%d}", m.Level, m.Index); got != want {
			t.Fatalf("%s: %s is labeled %s, want %s", stage, m.Name, got, want)
		}
		var best *Machine
		for _, l := range want {
			if best == nil || l.CommSlowdown < best.CommSlowdown ||
				(l.CommSlowdown == best.CommSlowdown && l.EffComp() < best.EffComp()) {
				best = l
			}
		}
		if got := m.Coordinator(); got != best {
			t.Fatalf("%s: %s elects %s, a fresh walk elects %s", stage, m.Name, got.Name, best.Name)
		}
	})
}

// The scope facts index records are memos of structure, like the ranking
// above is of parameters: every operation that can change structure must
// leave them equal to a fresh walk, and a copy must never answer with
// the original's.
func TestScopeFactsMatchFreshWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		src := RandomTree(rng, 3, 4)
		tr := MustNew(src.Root, src.G)
		checkScopeFacts(t, tr, "New")
		checkScopeFacts(t, tr.Normalize(), "Normalize")

		layout := tr.SaveLayout()
		for epoch := 1; epoch <= 3; epoch++ {
			est := make([]float64, tr.NProcs())
			for pid := range est {
				est[pid] = 0.5 + 3*rng.Float64()
			}
			if err := tr.Reorganize(PlanReorg(tr, est, int64(trial), epoch)); err != nil {
				t.Fatal(err)
			}
			checkScopeFacts(t, tr, fmt.Sprintf("Reorganize epoch %d", epoch))
			if err := tr.Validate(); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}
		}

		c := tr.Clone()
		checkScopeFacts(t, c, "Clone")
		c.Root.Walk(func(m *Machine) {
			for _, l := range m.Leaves() {
				if tr.Pid(l) >= 0 {
					t.Fatalf("trial %d: the clone's %s records leaf %s of the original", trial, m.Name, l.Name)
				}
			}
		})
		checkScopeFacts(t, tr, "the cloned original")

		tr.RestoreLayout(layout)
		checkScopeFacts(t, tr, "RestoreLayout")
	}

	// Outside a tree there is nothing recorded: the walk, no pids, the
	// label of the zero position.
	loose := NewCluster("loose", []*Machine{NewLeaf("a"), NewCluster("b", []*Machine{NewLeaf("c")})})
	if got := loose.Leaves(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Errorf("an unindexed cluster walks to %d leaves, want a and c", len(got))
	}
	if loose.Pids() != nil || loose.Label() != "M_{0,0}" {
		t.Errorf("an unindexed cluster answers pids %v label %s", loose.Pids(), loose.Label())
	}
}

func BenchmarkRankedLeavesMemoized(b *testing.B) {
	tr := UCFTestbedN(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.RankedLeaves()
	}
}

func BenchmarkRankedLeavesResort(b *testing.B) {
	// The pre-memoization behavior: re-sort the leaf slice every call.
	tr := UCFTestbedN(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sortLeavesBySpeed(tr.Leaves())
	}
}

func BenchmarkRank(b *testing.B) {
	tr := UCFTestbedN(10)
	l := tr.Leaf(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Rank(l)
	}
}

func BenchmarkPlanReorg(b *testing.B) {
	tr := UCFTestbedN(10)
	est := make([]float64, tr.NProcs())
	for pid := range est {
		est[pid] = 1 + float64(pid%3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PlanReorg(tr, est, 42, i)
	}
}
