package trace

import (
	"strings"
	"testing"
)

func TestTimelineRendersScopesAndBoxes(t *testing.T) {
	r := &Report{
		Steps: []Step{
			{Shape: &Shape{Label: "gather", ScopeLabel: "M_{1,0}", ScopeName: "SMP"}, Start: 0, End: 50},
			{Shape: &Shape{Label: "gather", ScopeLabel: "M_{1,2}", ScopeName: "LAN"}, Start: 0, End: 80},
			{Shape: &Shape{Label: "up", ScopeLabel: "M_{2,0}", ScopeName: "wan"}, Start: 80, End: 100},
		},
		Total: 100,
	}
	out := r.Timeline(100)
	for _, want := range []string{"M_{1,0} SMP", "M_{1,2} LAN", "M_{2,0} wan", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// The WAN row's box must start later than the SMP row's.
	lines := strings.Split(out, "\n")
	var smp, wan string
	for _, l := range lines {
		if strings.HasPrefix(l, "M_{1,0}") {
			smp = l
		}
		if strings.HasPrefix(l, "M_{2,0}") {
			wan = l
		}
	}
	if strings.Index(wan, "█") <= strings.Index(smp, "█") {
		t.Errorf("wan step should start after smp step:\n%s", out)
	}
}

func TestTimelineEmptyAndDegenerate(t *testing.T) {
	empty := (&Report{}).Timeline(80)
	if !strings.Contains(empty, "no supersteps") {
		t.Errorf("empty timeline: %q", empty)
	}
	// Zero-duration steps still render one column.
	r := &Report{Steps: []Step{{Shape: &Shape{Label: "z", ScopeLabel: "M_{1,0}", ScopeName: "x"}, Start: 0, End: 0}}}
	out := r.Timeline(10) // width below minimum gets clamped
	if !strings.Contains(out, "█") {
		t.Errorf("zero-duration step invisible:\n%s", out)
	}
}

func TestTimelineLabelOverlay(t *testing.T) {
	r := &Report{
		Steps: []Step{{Shape: &Shape{Label: "verywidestep", ScopeLabel: "M_{1,0}", ScopeName: "s"}, Start: 0, End: 100}},
		Total: 100,
	}
	out := r.Timeline(120)
	if !strings.Contains(out, "verywidestep") {
		t.Errorf("wide box should carry its label:\n%s", out)
	}
}
