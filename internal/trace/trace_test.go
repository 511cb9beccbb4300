package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Report {
	return &Report{
		Steps: []Step{
			{Index: 0, Label: "gather", ScopeLabel: "M_{1,0}", ScopeName: "lan",
				Level: 1, Participants: 4, W: 10, H: 100, Comm: 100, Sync: 5, Time: 115,
				Flows: 3, Bytes: 300},
			{Index: 1, Label: "up", ScopeLabel: "M_{2,0}", ScopeName: "wan",
				Level: 2, Participants: 2, W: 0, H: 50, Comm: 500, Sync: 50, Time: 550,
				Flows: 1, Bytes: 50},
		},
		Total: 665,
	}
}

func TestReportAggregates(t *testing.T) {
	r := sample()
	if r.Supersteps() != 2 {
		t.Errorf("Supersteps = %d, want 2", r.Supersteps())
	}
	if r.BytesMoved() != 350 {
		t.Errorf("BytesMoved = %d, want 350", r.BytesMoved())
	}
}

func TestReportString(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"gather", "M_{2,0}", "total: 665"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("t", "a", "bee")
	tb.Add("xxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (title, header, rule, row):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== t ==") {
		t.Errorf("missing title: %q", lines[0])
	}
	// Header and row must be equally wide (aligned columns).
	if len(lines[1]) != len(lines[3]) {
		t.Errorf("misaligned: header %d chars, row %d chars", len(lines[1]), len(lines[3]))
	}
}

func TestTableAddF(t *testing.T) {
	tb := NewTable("", "s", "f", "i")
	tb.AddF("x", 3.14159, 42)
	row := tb.Rows[0]
	if row[0] != "x" || row[1] != "3.142" || row[2] != "42" {
		t.Errorf("AddF row = %v", row)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add(`plain`, `needs,"quoting"`)
	csv := tb.CSV()
	want := "a,b\nplain,\"needs,\"\"quoting\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Errorf("ragged row dropped:\n%s", out)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != r.Total || len(back.Steps) != len(r.Steps) {
		t.Fatalf("round trip changed shape: %+v", back)
	}
	for i := range r.Steps {
		if back.Steps[i] != r.Steps[i] {
			t.Errorf("step %d differs: %+v vs %+v", i, back.Steps[i], r.Steps[i])
		}
	}
	if _, err := ReadJSON(bytes.NewBufferString("{broken")); err == nil {
		t.Error("corrupt JSON accepted")
	}
}
