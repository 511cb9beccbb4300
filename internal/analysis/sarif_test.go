package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// TestSARIFStructure pins the 2.1.0 shape: schema URI, version, one run
// with tool.driver.rules, and results whose ruleIndex points back into
// the rules array with a precise region.
func TestSARIFStructure(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	f := fset.AddFile("pkg/a.go", -1, 1000)
	f.SetLines([]int{0, 100, 200, 300})
	pos := f.Pos(105) // line 2, col 6
	end := f.Pos(130) // line 2, col 31

	diags := []Diagnostic{
		{Pos: pos, End: end, Analyzer: "pidtaint", Message: "divergent arms"},
		{Pos: pos, Analyzer: "variantcheck", Message: "cheaper variant"},
	}
	doc := SARIFDoc(fset, diags, []*Analyzer{PidTaint, SyncFlow}, "", map[string]string{"variantcheck": "advice"})

	var buf bytes.Buffer
	if err := doc.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}

	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); s == "" {
		t.Error("missing $schema")
	}
	runs, _ := log["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "hbspk-vet" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		ruleIDs[i] = r.(map[string]any)["id"].(string)
	}
	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, raw := range results {
		r := raw.(map[string]any)
		idx := int(r["ruleIndex"].(float64))
		if idx < 0 || idx >= len(ruleIDs) || ruleIDs[idx] != r["ruleId"] {
			t.Errorf("result ruleIndex %d does not resolve to ruleId %v", idx, r["ruleId"])
		}
		locs := r["locations"].([]any)
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		if phys["artifactLocation"].(map[string]any)["uri"] != "pkg/a.go" {
			t.Errorf("artifact uri = %v", phys["artifactLocation"])
		}
		region := phys["region"].(map[string]any)
		if int(region["startLine"].(float64)) != 2 {
			t.Errorf("startLine = %v, want 2", region["startLine"])
		}
	}

	first := results[0].(map[string]any)
	region := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)["region"].(map[string]any)
	if int(region["endColumn"].(float64)) != 31 {
		t.Errorf("endColumn = %v, want 31", region["endColumn"])
	}
	if first["level"] != "error" {
		t.Errorf("pidtaint level = %v, want error", first["level"])
	}
	second := results[1].(map[string]any)
	if second["level"] != "note" {
		t.Errorf("advisory level = %v, want note", second["level"])
	}
}
