package obsv

import (
	"bytes"
	"strings"
	"testing"
)

func testDoc() *CommGraphDoc {
	return &CommGraphDoc{
		Schema: CommGraphSchema,
		Module: "hbspk",
		Packages: []PkgGraph{
			{
				Path: "hbspk/internal/collective",
				Funcs: []FuncGraph{
					{
						Name: "Gather", File: "gather.go", Line: 17,
						Steps: []StepTopo{{
							Index: 0, Sync: "Sync(scope)",
							Edges: []CommEdge{{Src: "*", Dst: "*", Tag: "1"}},
						}},
					},
					{
						Name: "statusRound", File: "ft.go", Line: 300,
						Steps: []StepTopo{{
							Index: 0, Sync: "Sync(scope)",
							Edges: []CommEdge{{Src: "*", Dst: "0", Tag: "40"}},
						}},
					},
				},
			},
		},
	}
}

// TestConformanceCleanRun: deliveries covered by static edges pass; the
// concrete-tag edge that never fired is advisory only.
func TestConformanceCleanRun(t *testing.T) {
	doc := testDoc()
	deliveries := []Delivery{
		{Src: 3, Dst: 0, Tag: 1, Count: 4, Bytes: 4096},
		{Src: 7, Dst: 0, Tag: 1, Count: 1, Bytes: 1024},
	}
	rep := CheckConformance(doc, deliveries)
	if !rep.OK() {
		t.Fatalf("clean run reported unexplained deliveries: %v", rep.Unexplained)
	}
	if len(rep.Unobserved) != 1 || rep.Unobserved[0].Edge.Tag != "40" {
		t.Errorf("want exactly the tag-40 edge unobserved, got %v", rep.Unobserved)
	}
	if !strings.Contains(rep.String(), "every observed delivery is explained") {
		t.Errorf("report text: %q", rep.String())
	}
}

// TestConformanceUndeclaredSend: a delivery whose tag no static edge
// declares fails the gate — the undeclared-send fixture of the CI smoke.
func TestConformanceUndeclaredSend(t *testing.T) {
	doc := testDoc()
	deliveries := []Delivery{
		{Src: 3, Dst: 0, Tag: 1, Count: 1, Bytes: 64},
		{Src: 2, Dst: 5, Tag: 99, Count: 2, Bytes: 128}, // nobody declares tag 99
	}
	rep := CheckConformance(doc, deliveries)
	if rep.OK() {
		t.Fatal("undeclared tag-99 delivery passed the gate")
	}
	if len(rep.Unexplained) != 1 || rep.Unexplained[0].Tag != 99 {
		t.Fatalf("unexplained = %v, want exactly the tag-99 class", rep.Unexplained)
	}
	if !strings.Contains(rep.String(), "UNEXPLAINED") {
		t.Errorf("report text misses the violation: %q", rep.String())
	}
}

// TestConformanceConcreteEndpoints: a concrete dst pattern must reject
// a delivery to a different dst even under the same tag.
func TestConformanceConcreteEndpoints(t *testing.T) {
	doc := testDoc()
	rep := CheckConformance(doc, []Delivery{{Src: 2, Dst: 6, Tag: 40, Count: 1}})
	if rep.OK() {
		t.Fatal("tag-40 delivery to dst 6 matched an edge pinned to dst 0")
	}
	rep = CheckConformance(doc, []Delivery{{Src: 2, Dst: 0, Tag: 40, Count: 1}})
	if !rep.OK() {
		t.Fatalf("tag-40 delivery to dst 0 should match: %v", rep.Unexplained)
	}
	for _, e := range rep.Unobserved {
		if e.Edge.Tag == "40" {
			t.Errorf("matched tag-40 edge still reported unobserved: %v", e)
		}
	}
}

// TestReadDeliveriesFromJSONL parses a mixed event stream, keeps only
// deliveries, and aggregates per (src, dst, tag).
func TestReadDeliveriesFromJSONL(t *testing.T) {
	events := []Event{
		{Kind: KindSuperstep, Step: 0, Pid: -1, Src: -1, Dst: -1, Tag: -1, Name: "gather"},
		{Kind: KindDelivery, Step: 0, Pid: 0, Src: 3, Dst: 0, Tag: 1, Bytes: 100},
		{Kind: KindDelivery, Step: 0, Pid: 0, Src: 3, Dst: 0, Tag: 1, Bytes: 50},
		{Kind: KindDelivery, Step: 1, Pid: 2, Src: 0, Dst: 2, Tag: 7, Bytes: 9},
		{Kind: KindBarrier, Step: 1, Pid: 2, Src: -1, Dst: -1, Tag: -1},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeliveries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Delivery{
		{Src: 3, Dst: 0, Tag: 1, Count: 2, Bytes: 150},
		{Src: 0, Dst: 2, Tag: 7, Count: 1, Bytes: 9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d delivery classes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCommGraphRoundTripDeterministic: encode -> parse -> encode is
// byte-identical, and normalization sorts shuffled input.
func TestCommGraphRoundTripDeterministic(t *testing.T) {
	doc := testDoc()
	// Shuffle: reverse funcs and edges.
	doc.Packages[0].Funcs[0], doc.Packages[0].Funcs[1] = doc.Packages[0].Funcs[1], doc.Packages[0].Funcs[0]
	var a bytes.Buffer
	if err := doc.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCommGraph(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := parsed.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	if parsed.Packages[0].Funcs[0].Name != "statusRound" { // ft.go sorts before gather.go
		t.Errorf("normalization did not sort funcs by (file, line): first is %q", parsed.Packages[0].Funcs[0].Name)
	}
	if _, err := ParseCommGraph(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Error("bogus schema accepted")
	}
	// Unknown keys are ignored: a document carrying per-step "cost" and
	// per-edge "bytes" strings still parses to its edges.
	withExtras := `{"schema":"hbspk-commgraph/1","packages":[{"path":"p","funcs":[{"name":"f","file":"f.go","line":1,
		"steps":[{"index":0,"cost":"L","edges":[{"src":"*","dst":"0","tag":"1","bytes":"8"}]}]}]}]}`
	old, err := ParseCommGraph(strings.NewReader(withExtras))
	if err != nil {
		t.Fatal(err)
	}
	if got := old.Packages[0].Funcs[0].Steps[0].Edges; len(got) != 1 || got[0] != (CommEdge{Src: "*", Dst: "0", Tag: "1"}) {
		t.Errorf("edges of a document with extra keys = %+v", got)
	}
}
