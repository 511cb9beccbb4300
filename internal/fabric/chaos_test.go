package fabric

import "testing"

func TestChaosNilPlanIsInert(t *testing.T) {
	var p *ChaosPlan
	if p.CrashNow(0, 0, 100) {
		t.Error("nil plan crashed a processor")
	}
	if f := p.Slowdown(3, 7); f != 1 {
		t.Errorf("nil plan slowdown = %v, want 1", f)
	}
	if f := p.MessageFate(1, 2, 3); f.Drop || f.Duplicate || f.Delay != 0 {
		t.Errorf("nil plan fate = %+v, want zero", f)
	}
}

func TestChaosCrashTriggers(t *testing.T) {
	p := &ChaosPlan{Crashes: []Crash{
		{Pid: 1, AtStep: 2},
		{Pid: 2, AtStep: -1, AtTime: 50},
	}}
	if p.CrashNow(1, 1, 0) {
		t.Error("p1 crashed before its step")
	}
	if !p.CrashNow(1, 2, 0) || !p.CrashNow(1, 5, 0) {
		t.Error("p1 did not stay crashed from its step on")
	}
	if p.CrashNow(2, 9, 49) {
		t.Error("p2 crashed before its time")
	}
	if !p.CrashNow(2, 0, 50) {
		t.Error("p2 did not crash at its time")
	}
	if p.CrashNow(0, 100, 1e9) {
		t.Error("an unlisted pid crashed")
	}
}

func TestChaosStragglerWindowAndProduct(t *testing.T) {
	p := &ChaosPlan{Stragglers: []Straggler{
		{Pid: 0, FromStep: 1, ToStep: 3, Factor: 4},
		{Pid: 0, FromStep: 3, ToStep: 5, Factor: 2},
	}}
	cases := []struct {
		step int
		want float64
	}{{0, 1}, {1, 4}, {3, 8}, {5, 2}, {6, 1}}
	for _, c := range cases {
		if got := p.Slowdown(0, c.step); got != c.want {
			t.Errorf("Slowdown(0, %d) = %v, want %v", c.step, got, c.want)
		}
	}
	if got := p.Slowdown(1, 2); got != 1 {
		t.Errorf("other pid slowed: %v", got)
	}
}

// Fates are a pure function of (seed, src, dst, seq): identical across
// calls and call orders, which is what makes a plan reproduce the same
// faults under both engines.
func TestChaosFateDeterministicAndSeedSensitive(t *testing.T) {
	a := &ChaosPlan{Seed: 7, Drop: 0.3, Duplicate: 0.2, Delay: 0.2, DelaySteps: 2}
	b := &ChaosPlan{Seed: 8, Drop: 0.3, Duplicate: 0.2, Delay: 0.2, DelaySteps: 2}
	differ := false
	for seq := 0; seq < 200; seq++ {
		f1 := a.MessageFate(0, 1, seq)
		f2 := a.MessageFate(0, 1, seq)
		if f1 != f2 {
			t.Fatalf("fate of seq %d not deterministic: %+v vs %+v", seq, f1, f2)
		}
		if f1 != b.MessageFate(0, 1, seq) {
			differ = true
		}
		if f1.Delay != 0 && f1.Delay != 2 {
			t.Fatalf("delay = %d, want 0 or DelaySteps", f1.Delay)
		}
	}
	if !differ {
		t.Error("seeds 7 and 8 produced identical fate streams")
	}
}

func TestChaosFateRatesRoughlyHonored(t *testing.T) {
	p := &ChaosPlan{Seed: 42, Drop: 0.3}
	dropped := 0
	const n = 20000
	for seq := 0; seq < n; seq++ {
		if p.MessageFate(seq%7, seq%5, seq).Drop {
			dropped++
		}
	}
	frac := float64(dropped) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("drop fraction = %v, want ~0.3", frac)
	}
}

func TestChaosDropWinsOverOtherFates(t *testing.T) {
	p := &ChaosPlan{Seed: 1, Drop: 1, Duplicate: 1, Delay: 1}
	f := p.MessageFate(0, 1, 2)
	if !f.Drop || f.Duplicate || f.Delay != 0 {
		t.Errorf("fate = %+v, want pure drop", f)
	}
}

func TestChurnQueries(t *testing.T) {
	var nilPlan *ChaosPlan
	if nilPlan.LeaveNow(1, 5) {
		t.Fatal("nil plan churned a processor")
	}
	p := &ChaosPlan{Churns: []Churn{{Pid: 1, LeaveAt: 4}}}
	if p.LeaveNow(1, 3) {
		t.Fatal("left before its step")
	}
	if !p.LeaveNow(1, 4) || !p.LeaveNow(1, 9) {
		t.Fatal("LeaveNow should latch at and after the step")
	}
	if p.LeaveNow(2, 10) {
		t.Fatal("a processor with no churn fate left")
	}
}

func TestSeededChurnDeterministicAndBounded(t *testing.T) {
	a := SeededChurn(42, 8, 2, 5)
	b := SeededChurn(42, 8, 2, 5)
	if len(a) != 2 {
		t.Fatalf("want 2 leaves, got %d fates", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %+v vs %+v", a[i], b[i])
		}
	}
	seen := map[int]bool{}
	for _, c := range a {
		if seen[c.Pid] {
			t.Fatalf("pid %d churned twice", c.Pid)
		}
		seen[c.Pid] = true
		if c.Pid == 0 {
			t.Fatal("pid 0 must stay stable")
		}
		if c.LeaveAt <= 5 || c.LeaveAt > 10 {
			t.Fatalf("LeaveAt %d outside [6,10]", c.LeaveAt)
		}
	}
	if diff := SeededChurn(43, 8, 2, 5); diff[0] == a[0] && diff[1] == a[1] {
		t.Fatal("different seed produced the identical schedule")
	}
	if got := SeededChurn(42, 1, 3, 5); got != nil {
		t.Fatal("single-processor machine cannot churn")
	}
	if got := SeededChurn(42, 4, 9, 5); len(got) != 3 {
		t.Fatalf("count not clamped: %d fates for 4 pids, want 3", len(got))
	}
}
