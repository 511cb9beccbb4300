// Package trace records what an HBSP^k run did: one entry per executed
// super^i-step with its cost ingredients, plus rendering helpers for the
// experiment tables and figures.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Step is one executed super^i-step.
type Step struct {
	// Index is the step's position in execution order.
	Index int
	// Label is the program-supplied step name; ScopeLabel and
	// ScopeName identify the step's scope machine (M_{i,j} / name).
	Label      string
	ScopeLabel string
	ScopeName  string
	// Level is i; Participants the number of processors that
	// synchronized.
	Level        int
	Participants int
	// W, H, Comm, Sync and Time are the charged cost ingredients:
	// T = W + Comm + Sync with Comm = g·H in the pure model.
	W, H, Comm, Sync, Time float64
	// Ckpt is the checkpoint-commit charge added past the step's end
	// (the maximum over participants), nonzero only at checkpointed
	// superstep boundaries.
	Ckpt float64
	// Flows and Bytes summarize the step's delivered traffic.
	Flows, Bytes int
	// GatingPid is the processor whose work set W (-1 when none);
	// Imbalance is W over the mean positive per-processor work.
	GatingPid int
	Imbalance float64
	// Start and End bound the step on the virtual clock (End - Start
	// may exceed Time when participants entered the barrier at
	// different local times).
	Start, End float64
}

// Report is the full record of one run.
type Report struct {
	// Steps in execution order.
	Steps []Step
	// Total is when the run finished, on the engine's clock: on
	// Virtual the maximum leaf clock in model units, on Concurrent the
	// wall-clock microseconds since the run started.
	Total float64
}

// Supersteps returns the number of executed steps.
func (r *Report) Supersteps() int { return len(r.Steps) }

// BytesMoved sums the traffic over all steps.
func (r *Report) BytesMoved() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Bytes
	}
	return n
}

// String renders the run as an ASCII profile.
func (r *Report) String() string {
	tb := NewTable("superstep profile",
		"#", "label", "scope", "lvl", "procs", "w", "comm", "L", "T", "bytes", "gate")
	for _, s := range r.Steps {
		gate := "-"
		if s.GatingPid >= 0 {
			gate = fmt.Sprintf("p%d (%.2gx)", s.GatingPid, s.Imbalance)
		}
		tb.Add(
			fmt.Sprintf("%d", s.Index),
			s.Label,
			fmt.Sprintf("%s %s", s.ScopeLabel, s.ScopeName),
			fmt.Sprintf("%d", s.Level),
			fmt.Sprintf("%d", s.Participants),
			fmt.Sprintf("%.4g", s.W),
			fmt.Sprintf("%.4g", s.Comm),
			fmt.Sprintf("%.4g", s.Sync),
			fmt.Sprintf("%.4g", s.Time),
			fmt.Sprintf("%d", s.Bytes),
			gate,
		)
	}
	return tb.String() + fmt.Sprintf("total: %.6g\n", r.Total)
}

// Table is a titled grid with aligned ASCII and CSV renderings, used for
// every regenerated figure and table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; missing cells render empty, extras are kept.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddF appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d.
func (t *Table) AddF(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			cells[i] = x
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case int:
			cells[i] = fmt.Sprintf("%d", x)
		default:
			cells[i] = fmt.Sprint(x)
		}
	}
	t.Add(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range width {
		_ = i
		b.WriteString(strings.Repeat("-", w+2))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteJSON serializes the report (all step fields are exported).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("trace: decoding report: %w", err)
	}
	return &r, nil
}
