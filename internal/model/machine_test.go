package model

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fig1(t *testing.T) *Tree {
	t.Helper()
	tr := Figure1Cluster()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Figure1Cluster invalid: %v", err)
	}
	return tr
}

func TestFigure1Shape(t *testing.T) {
	tr := fig1(t)
	if got := tr.K(); got != 2 {
		t.Fatalf("K = %d, want 2 (HBSP^2 machine)", got)
	}
	// Level 2: the campus root. Level 1: SMP, SGI, LAN. Level 0: 4 SMP
	// cpus + 4 LAN workstations.
	if got := tr.M(2); got != 1 {
		t.Errorf("m_2 = %d, want 1", got)
	}
	if got := tr.M(1); got != 3 {
		t.Errorf("m_1 = %d, want 3", got)
	}
	if got := tr.M(0); got != 8 {
		t.Errorf("m_0 = %d, want 8", got)
	}
	if got := tr.NProcs(); got != 9 {
		t.Errorf("NProcs = %d, want 9 (8 level-0 processors + SGI)", got)
	}
}

func TestLevelIsKMinusDepth(t *testing.T) {
	tr := fig1(t)
	var check func(m *Machine, depth int)
	check = func(m *Machine, depth int) {
		if want := tr.K() - depth; m.Level != want {
			t.Errorf("%s %q: level %d, want k-d = %d", m.Label(), m.Name, m.Level, want)
		}
		for _, c := range m.Children {
			check(c, depth+1)
		}
	}
	check(tr.Root, 0)
}

func TestIndexingWithinLevel(t *testing.T) {
	tr := fig1(t)
	for i := 0; i <= tr.K(); i++ {
		for j, m := range tr.MachinesAt(i) {
			if m.Index != j {
				t.Errorf("level %d position %d has Index %d", i, j, m.Index)
			}
		}
	}
}

func TestCoordinatorIsFastestInSubtree(t *testing.T) {
	tr := fig1(t)
	lan := tr.Root.Children[2]
	if lan.Name != "LAN" {
		t.Fatalf("expected LAN as third child, got %q", lan.Name)
	}
	co := lan.Coordinator()
	for _, l := range lan.Leaves() {
		if l.CommSlowdown < co.CommSlowdown {
			t.Errorf("coordinator %q (r=%v) slower than %q (r=%v)",
				co.Name, co.CommSlowdown, l.Name, l.CommSlowdown)
		}
	}
	// The root's coordinator is the fastest machine overall, so its r
	// must be 1 after normalization (paper: r_{k,0} = 1).
	if r := tr.FastestLeaf().CommSlowdown; math.Abs(r-1) > 1e-12 {
		t.Errorf("fastest leaf r = %v, want 1", r)
	}
}

func TestLeafCoordinatorIsItself(t *testing.T) {
	l := NewLeaf("solo")
	if l.Coordinator() != l {
		t.Error("leaf must be its own coordinator")
	}
}

func TestPidsAreStableLeftToRight(t *testing.T) {
	tr := fig1(t)
	leaves := tr.Leaves()
	for pid, l := range leaves {
		if got := tr.Pid(l); got != pid {
			t.Errorf("Pid(%q) = %d, want %d", l.Name, got, pid)
		}
		if got := tr.Leaf(pid); got != l {
			t.Errorf("Leaf(%d) = %q, want %q", pid, got.Name, l.Name)
		}
	}
	if tr.Pid(tr.Root) != -1 {
		t.Error("Pid of a cluster must be -1")
	}
	if tr.Leaf(-1) != nil || tr.Leaf(len(leaves)) != nil {
		t.Error("Leaf out of range must return nil")
	}
}

func TestSharesSumToOne(t *testing.T) {
	tr := fig1(t)
	sum := 0.0
	for _, l := range tr.Leaves() {
		sum += l.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("leaf shares sum to %v, want 1", sum)
	}
	if math.Abs(tr.Root.Share-1) > 1e-9 {
		t.Errorf("root share = %v, want 1", tr.Root.Share)
	}
}

func TestBalancedSharesInverseToSpeed(t *testing.T) {
	// Normalize assigns c_j ∝ 1/compute-slowdown, the paper's balanced
	// workload rule: r_{0,j}·c_{0,j} stays bounded.
	tr := UCFTestbed()
	f, s := tr.FastestLeaf(), tr.SlowestLeaf()
	if f.Share <= s.Share {
		t.Errorf("fastest share %v should exceed slowest share %v", f.Share, s.Share)
	}
	ratio := f.Share / s.Share
	want := s.CompSlowdown / f.CompSlowdown
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("share ratio %v, want compute ratio %v", ratio, want)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := New(NewLeaf("x"), 0); err == nil {
		t.Error("g = 0 accepted")
	}
	if _, err := New(NewLeaf("x"), math.Inf(1)); err == nil {
		t.Error("g = +Inf accepted")
	}
	if _, err := New(NewLeaf("x"), math.NaN()); err == nil {
		t.Error("g = NaN accepted")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	mk := func(mutate func(*Tree)) error {
		tr := UCFTestbedN(4)
		mutate(tr)
		return tr.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*Tree)
	}{
		{"negative r", func(tr *Tree) { tr.Leaves()[1].CommSlowdown = -1 }},
		{"zero compute", func(tr *Tree) { tr.Leaves()[1].CompSlowdown = 0 }},
		{"negative L", func(tr *Tree) { tr.Root.SyncCost = -5 }},
		{"share > 1", func(tr *Tree) { tr.Leaves()[0].Share = 1.5 }},
		{"unnormalized r", func(tr *Tree) {
			for _, l := range tr.Leaves() {
				l.CommSlowdown *= 2
			}
		}},
		{"shares not summing", func(tr *Tree) {
			tr.Leaves()[0].Share = 0
			tr.Root.Share = tr.Leaves()[1].Share + tr.Leaves()[2].Share + tr.Leaves()[3].Share
		}},
		{"cluster faster than coordinator", func(tr *Tree) { tr.Root.CommSlowdown = 0.5 }},
	}
	for _, tc := range cases {
		if err := mk(tc.mutate); err == nil {
			t.Errorf("%s: Validate accepted invalid tree", tc.name)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	tr := Figure1Cluster()
	before := SpecOf(tr)
	tr.Normalize()
	after := SpecOf(tr)
	b1, _ := before.Encode()
	b2, _ := after.Encode()
	if string(b1) != string(b2) {
		t.Errorf("Normalize not idempotent:\nfirst:\n%s\nsecond:\n%s", b1, b2)
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	tr := fig1(t)
	c := tr.Clone()
	if c.Root == tr.Root {
		t.Fatal("Clone shares the root node")
	}
	c.Leaves()[0].CommSlowdown = 99
	if tr.Leaves()[0].CommSlowdown == 99 {
		t.Error("mutating clone leaked into original")
	}
	if c.K() != tr.K() || c.NProcs() != tr.NProcs() {
		t.Error("clone shape differs")
	}
}

func TestDeepChainLevels(t *testing.T) {
	const k = 6
	tr := DeepChain(k)
	if tr.K() != k {
		t.Fatalf("K = %d, want %d", tr.K(), k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("DeepChain invalid: %v", err)
	}
	// Chain has one leaf at level 0 plus one extra leaf per nest level.
	if got, want := tr.NProcs(), k+1; got != want {
		t.Errorf("NProcs = %d, want %d", got, want)
	}
}

func TestSingleProcessorIsHBSP0(t *testing.T) {
	tr := MustNew(NewLeaf("cpu"), 1).Normalize()
	if tr.K() != 0 {
		t.Errorf("K = %d, want 0", tr.K())
	}
	if tr.NProcs() != 1 {
		t.Errorf("NProcs = %d, want 1", tr.NProcs())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
	if tr.FastestLeaf() != tr.Root {
		t.Error("single processor must be its own fastest leaf")
	}
}

func TestRankedLeavesOrdering(t *testing.T) {
	tr := UCFTestbed()
	ranked := tr.RankedLeaves()
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].CompSlowdown > ranked[i].CompSlowdown {
			t.Fatalf("ranking not fastest-first at %d: %v > %v",
				i, ranked[i-1].CompSlowdown, ranked[i].CompSlowdown)
		}
	}
	if rankOf(tr, tr.FastestLeaf()) != 0 {
		t.Error("fastest leaf should have rank 0")
	}
	if rankOf(tr, tr.Root) != -1 {
		t.Error("rank of a cluster should be -1")
	}
}

func TestUCFTestbedNSweep(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 8, 10} {
		tr := UCFTestbedN(p)
		if tr.NProcs() != p {
			t.Errorf("UCFTestbedN(%d) has %d processors", p, tr.NProcs())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("UCFTestbedN(%d) invalid: %v", p, err)
		}
		if p >= 2 {
			// Interleaved order must include both the globally fastest
			// and the globally slowest machine at every p ≥ 2.
			f, s := tr.FastestLeaf(), tr.SlowestLeaf()
			if f.Name != "sgi-o2-a" {
				t.Errorf("p=%d: fastest is %q, want sgi-o2-a", p, f.Name)
			}
			if s.Name != "sun-sparc4" {
				t.Errorf("p=%d: slowest is %q, want sun-sparc4", p, s.Name)
			}
		}
	}
}

func TestUCFTestbedNPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UCFTestbedN(0) did not panic")
		}
	}()
	UCFTestbedN(0)
}

func TestStringRendering(t *testing.T) {
	tr := fig1(t)
	s := tr.String()
	for _, want := range []string{"HBSP^2", "SMP", "LAN", "sgi", "M_{2,0}"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestLabelFormat(t *testing.T) {
	tr := fig1(t)
	if got := tr.Root.Label(); got != "M_{2,0}" {
		t.Errorf("root label = %q, want M_{2,0}", got)
	}
}

func TestWideAreaGridShape(t *testing.T) {
	tr := WideAreaGrid(3, 4, 12, 50, 5000)
	if tr.K() != 2 {
		t.Fatalf("K = %d, want 2", tr.K())
	}
	if tr.NProcs() != 12 {
		t.Fatalf("NProcs = %d, want 12", tr.NProcs())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Inter-cluster slowdowns must exceed every member's slowdown: the
	// WAN is the slow link.
	for _, c := range tr.Root.Children {
		for _, l := range c.Leaves() {
			if c.CommSlowdown < l.CommSlowdown {
				t.Errorf("cluster %q r=%v faster than member %q r=%v",
					c.Name, c.CommSlowdown, l.Name, l.CommSlowdown)
			}
		}
	}
}

func TestLoadMachine(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "machine.json")
	data, err := SpecOf(Figure1Cluster()).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		want   *Tree // nil: an error is expected
		errHas string
	}{
		{name: "ucf", want: UCFTestbed()},
		{name: "testbed", want: UCFTestbed()},
		{name: "figure1", want: Figure1Cluster()},
		{name: "grid", want: WideAreaGrid(3, 4, 12, 25000, 250000)},
		{name: "chain", want: DeepChain(4)},
		{name: specPath, want: Figure1Cluster()},
		{name: filepath.Join(dir, "missing.json"), errHas: "not a preset (ucf, figure1, grid, chain)"},
		{name: badPath, errHas: "parsing machine spec"},
	}
	for _, tc := range cases {
		got, err := LoadMachine(tc.name)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("LoadMachine(%q) error = %v, want one containing %q", tc.name, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("LoadMachine(%q): %v", tc.name, err)
			continue
		}
		if got.Fingerprint() != tc.want.Fingerprint() || got.NProcs() != tc.want.NProcs() {
			t.Errorf("LoadMachine(%q) = %d procs, fingerprint %x; want %d, %x",
				tc.name, got.NProcs(), got.Fingerprint(), tc.want.NProcs(), tc.want.Fingerprint())
		}
	}
}
