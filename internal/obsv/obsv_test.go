package obsv

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

func TestRingKeepsMostRecentAndCountsLost(t *testing.T) {
	t.Parallel()
	r := newRing(8)
	for i := 0; i < 20; i++ {
		r.put(Event{Kind: KindDelivery, Step: int32(i)})
	}
	evs := r.snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := int32(12 + i); e.Step != want {
			t.Errorf("slot %d holds step %d, want %d (emission order broken)", i, e.Step, want)
		}
	}
	if got := r.lost(); got != 12 {
		t.Errorf("lost() = %d, want 12", got)
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	t.Parallel()
	r := newRing(5)
	if len(r.slots) != 8 {
		t.Errorf("capacity 5 allocated %d slots, want 8", len(r.slots))
	}
}

func TestRingConcurrentPut(t *testing.T) {
	t.Parallel()
	// Hammer the ring from many goroutines; under -race this verifies
	// the ticket/seq protocol. Offered = kept + lost must always hold.
	r := newRing(64)
	var wg sync.WaitGroup
	const writers, each = 8, 500
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.put(Event{Kind: KindDelivery, Pid: int32(w), Step: int32(i)})
			}
		}()
	}
	wg.Wait()
	kept := len(r.snapshot())
	if got := uint64(kept) + r.lost(); got != writers*each {
		t.Errorf("kept %d + lost %d = %d, want %d offered", kept, r.lost(), got, writers*each)
	}
}

func TestKindStrings(t *testing.T) {
	t.Parallel()
	for k, want := range map[Kind]string{
		KindSuperstep: "superstep", KindCollective: "collective",
		KindBarrier: "barrier", KindDelivery: "delivery",
		KindChaos: "chaos", Kind(0): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	t.Parallel()
	var r *Recorder
	r.Superstep(0, "x", "y", 1, 0, 1, 1, 1)
	r.HRelation(1)
	r.BarrierWait(0, 0, "y", 1, 0, 1)
	r.Collective("x", 0, 0, 1, 1)
	r.Delivery(0, 0, 1, 2, 3, 4)
	r.Chaos("drop", 0, 0, 1, 2)
	r.MailboxDepth(3)
	r.PoolDraw(true)
	if r.Metrics() != nil || r.Events() != nil || r.Lost() != 0 {
		t.Error("nil recorder must expose nothing")
	}
	// Nil registry and nil metric handles are no-ops too.
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z", []float64{1}).Observe(1)
	reg.Help("x", "h")
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

func TestDeliverySampling(t *testing.T) {
	t.Parallel()
	r := New(Config{Capacity: 1024, SampleEvery: 10})
	for i := 0; i < 100; i++ {
		r.Delivery(0, 1, 2, 3, 10, float64(i))
	}
	if got := len(r.Events()); got != 10 {
		t.Errorf("SampleEvery=10 kept %d of 100 delivery spans, want 10", got)
	}
	// Metrics still count every delivery.
	if got := r.messages.Value(); got != 100 {
		t.Errorf("messages counter = %d, want 100", got)
	}
	neg := New(Config{Capacity: 64, SampleEvery: -1})
	neg.Delivery(0, 1, 2, 3, 10, 0)
	if got := len(neg.Events()); got != 0 {
		t.Errorf("SampleEvery=-1 kept %d spans, want 0", got)
	}
}

func TestRecorderAggregates(t *testing.T) {
	t.Parallel()
	r := fixtureRecorder()
	if got := r.stepsTotal.Value(); got != 2 {
		t.Errorf("steps = %d, want 2", got)
	}
	if got := r.predTotal.Value(); math.Abs(got-260.5) > 1e-9 {
		t.Errorf("predicted total = %v, want 260.5", got)
	}
	if got := r.measTotal.Value(); math.Abs(got-260) > 1e-9 {
		t.Errorf("measured total = %v, want 260", got)
	}
	if hit, miss := r.poolHit.Value(), r.poolMiss.Value(); hit != 2 || miss != 1 {
		t.Errorf("pool draws hit=%d miss=%d, want 2/1", hit, miss)
	}
	if got := r.mailboxDepth.Count(); got != 2 {
		t.Errorf("mailbox depth count = %d, want 2", got)
	}
	if got := r.Lost(); got != 0 {
		t.Errorf("lost = %d, want 0", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	t.Parallel()
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	h := reg.Histogram("d", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-5056.5) > 1e-9 {
		t.Errorf("sum = %v, want 5056.5", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`d_bucket{le="1"} 2`, // cumulative: 0.5 and the boundary value 1
		`d_bucket{le="10"} 3`,
		`d_bucket{le="100"} 4`,
		`d_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRegistryLabelOrderAndReuse(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	a := reg.Counter("m", "b", "2", "a", "1")
	b := reg.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Error("label order must not split a child")
	}
	a.Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `m{a="1",b="2"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("labels not canonicalized, want %q in:\n%s", want, buf.String())
	}
}

func TestRegistryHelpThenTyped(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Help("m", "about m")
	reg.Gauge("m").Set(2.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP m about m") || !strings.Contains(out, "# TYPE m gauge") {
		t.Errorf("help-then-typed family rendered wrong:\n%s", out)
	}
	if !strings.Contains(out, "m 2.5") {
		t.Errorf("gauge value missing:\n%s", out)
	}
}

func TestFmtFloat(t *testing.T) {
	t.Parallel()
	for v, want := range map[float64]string{
		3:     "3",
		-12:   "-12",
		2.5:   "2.5",
		1e20:  "1e+20",
		0.001: "0.001",
	} {
		if got := fmtFloat(v); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestAttributeRatio(t *testing.T) {
	t.Parallel()
	rows := Attribute([]Event{
		{Kind: KindSuperstep, Step: 0, Name: "a", Start: 0, End: 10, Pred: 8},
		{Kind: KindSuperstep, Step: 1, Name: "b", Start: 10, End: 12, Pred: 0},
		{Kind: KindBarrier, Step: 0}, // ignored
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if math.Abs(rows[0].Ratio-1.25) > 1e-9 {
		t.Errorf("row 0 ratio = %v, want 1.25", rows[0].Ratio)
	}
	if rows[1].Ratio != 0 {
		t.Errorf("zero-pred row ratio = %v, want 0", rows[1].Ratio)
	}
}

// TestJoinPairsByScope pairs steps by (scope, ordinal): an unpaired
// step on either side is kept, and sibling clusters' steps, which run at
// the same time, join a Parallel closed-form step at its own time.
func TestJoinPairsByScope(t *testing.T) {
	t.Parallel()
	tr := model.Figure1Cluster()
	root, smp, lan := tr.Root, tr.Root.Children[0], tr.Root.Children[2]
	total := func(tb *trace.Table) string { return tb.Rows[len(tb.Rows)-1][len(tb.Header)-1] }

	t.Run("unpaired", func(t *testing.T) {
		bd := cost.Breakdown{G: 1, Steps: []cost.Step{
			{Label: "up", Scope: root, Work: 5, H: 3},
			{Label: "down", Scope: root, H: 2},
		}, Tail: 2}
		rep := &trace.Report{Steps: []trace.Step{
			{Label: "up", ScopeLabel: root.Label(), Time: 9, End: 9},
			{Label: "extra", ScopeLabel: smp.Label(), Time: 2, Start: 9, End: 11},
		}, Total: 12}
		j := Join(bd, rep)
		var got []string
		for _, p := range j.Pairs {
			got = append(got, fmt.Sprintf("%s#%d %v/%v", p.Scope, p.Ordinal, p.Pred != nil, p.Run != nil))
		}
		want := []string{
			root.Label() + "#0 true/true",
			root.Label() + "#1 true/false",
			smp.Label() + "#0 false/true",
		}
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("pairs %v, want %v", got, want)
		}
		if j.Tail != 1 || j.PredTail != 2 {
			t.Errorf("tail %v run, %v priced; want 1 (rep.Total 12 less the last End 11) and bd.Tail 2", j.Tail, j.PredTail)
		}
		out := AttributeBreakdown("t", bd, rep).String()
		for _, want := range []string{"extra", "down", "1.125", "0.500"} { // 9 ÷ (5+3), tail 1 ÷ 2
			if !strings.Contains(out, want) {
				t.Errorf("table lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("parallel", func(t *testing.T) {
		bd := cost.Breakdown{G: 1, Steps: []cost.Step{cost.ParallelStep("super1 gather", 1, []cost.Step{
			{Scope: smp, H: 100, Sync: 5},
			{Scope: lan, H: 300, Sync: 20},
		})}}
		rep := &trace.Report{Steps: []trace.Step{
			{ScopeLabel: smp.Label(), Comm: 100, Sync: 5, Time: 105, End: 105},
			{ScopeLabel: lan.Label(), Comm: 300, Sync: 20, Time: 320, End: 320},
		}, Total: 320}
		for _, p := range Join(bd, rep).Pairs {
			if p.Pred == nil || p.Run == nil || p.Pred.Time(1) != p.Run.Time {
				t.Errorf("%s#%d: priced %+v, run %+v", p.Scope, p.Ordinal, p.Pred, p.Run)
			}
		}
		tb := AttributeBreakdown("t", bd, rep)
		if got := total(tb); got != "1.000" {
			t.Errorf("total reads %s, want 1.000:\n%s", got, tb)
		}
	})
}

func TestEventDur(t *testing.T) {
	t.Parallel()
	e := Event{Start: 2, End: 5.5}
	if got := e.Dur(); got != 3.5 {
		t.Errorf("Dur = %v, want 3.5", got)
	}
}

func TestWriteJSONLOneObjectPerEvent(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	evs := fixtureRecorder().Events()
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(evs) {
		t.Errorf("%d lines for %d events", lines, len(evs))
	}
}

func BenchmarkRecorderDelivery(b *testing.B) {
	r := New(Config{Capacity: 1 << 12, SampleEvery: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Delivery(0, 1, 2, 3, 128, float64(i))
	}
}

func BenchmarkRingPut(b *testing.B) {
	r := newRing(1 << 12)
	ev := Event{Kind: KindDelivery, Bytes: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.put(ev)
	}
}

func ExampleAttribTable() {
	rows := Attribute([]Event{
		{Kind: KindSuperstep, Step: 0, Name: "gather", Scope: "root", Level: 1, Bytes: 100, Start: 0, End: 10, Pred: 10},
	})
	fmt.Println(len(rows))
	// Output: 1
}
