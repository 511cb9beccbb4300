package analysis

import (
	"reflect"
	"strings"
	"testing"

	"hbspk/internal/obsv"
)

func TestCommGraphGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "commgraph")
}

// TestFlatFanoutGolden: a pid-guarded root sending to every processor in
// one superstep of a program body is commgraph's; the same shape in a
// library function, and an all-to-all exchange, are not.
func TestFlatFanoutGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "flatfanout")
}

// TestCommGraphExport pins the exported wire document over the
// flatfanout fixture: segments split at synchronizing calls, folded
// edges, the closing collective, and deterministic encoding that
// survives a round trip.
func TestCommGraphExport(t *testing.T) {
	t.Parallel()
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("flatfanout")
	if err != nil {
		t.Fatal(err)
	}
	doc := CommGraphDocOf(pkgs, "hbspk")
	if doc.Schema != obsv.CommGraphSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Packages) != 1 || doc.Packages[0].Path != "flatfanout" {
		t.Fatalf("packages = %+v", doc.Packages)
	}
	var er *obsv.FuncGraph
	for i, f := range doc.Packages[0].Funcs {
		if f.Name == "exchangeRounds" {
			er = &doc.Packages[0].Funcs[i]
		}
	}
	if er == nil {
		t.Fatal("exchangeRounds missing from the export")
	}
	want := []obsv.StepTopo{
		{Index: 0, Sync: "BcastOnePhase", Collectives: []string{"BcastOnePhase"}},
		{Index: 1, Sync: "Sync(scope)", Edges: []obsv.CommEdge{
			{Src: "*", Dst: "1", Tag: "5"},
			{Src: "*", Dst: "2", Tag: "5"},
		}},
	}
	if !reflect.DeepEqual(er.Steps, want) {
		t.Errorf("exchangeRounds steps = %+v, want %+v", er.Steps, want)
	}

	var a, b strings.Builder
	if err := doc.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := CommGraphDocOf(pkgs, "hbspk").WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("export is not deterministic")
	}
	parsed, err := obsv.ParseCommGraph(strings.NewReader(a.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, doc) {
		t.Errorf("round trip changed the document:\n%+v\nvs\n%+v", parsed, doc)
	}
}
