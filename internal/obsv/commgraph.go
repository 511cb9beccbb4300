package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The static↔runtime conformance gate. hbspk-vet exports the static
// communication graph of the analyzed packages as a CommGraphDoc
// (`-commgraph-out`); this file is the runtime half: it loads that
// document plus a run's JSONL span events and verifies every observed
// message delivery is explained by a static edge. Communication the
// analysis never saw — a send added behind the analyzers' back, a tag
// rewritten in flight, chaos duplications with forged identities — is
// reported as a conformance violation. The reverse direction (static
// edges that never fired) is advisory: a whole-repo graph legitimately
// contains edges the particular run does not exercise.

// CommGraphSchema identifies the wire format; bump on incompatible
// change. The serialization contract (stable ordering, "*" wildcards)
// is documented in DESIGN.md §5.6. Decoding ignores unknown keys.
const CommGraphSchema = "hbspk-commgraph/1"

// CommGraphDoc is the exported static communication topology of a set
// of packages: per function, per superstep, the message edges and
// collective calls.
type CommGraphDoc struct {
	Schema   string     `json:"schema"`
	Module   string     `json:"module,omitempty"`
	Packages []PkgGraph `json:"packages"`
}

// PkgGraph is one package's functions, sorted by (file, line).
type PkgGraph struct {
	Path  string      `json:"path"`
	Funcs []FuncGraph `json:"funcs"`
}

// FuncGraph is the per-superstep topology of one function body.
type FuncGraph struct {
	Name  string     `json:"name"`
	File  string     `json:"file"`
	Line  int        `json:"line"`
	Steps []StepTopo `json:"steps"`
}

// StepTopo is one superstep segment: the sends and collectives between
// two synchronizing calls, and the closing barrier.
type StepTopo struct {
	// Index is the segment's position in the body, 0-based; the last
	// segment of a body with a trailing sync has Sync == "".
	Index int `json:"index"`
	// Sync names the closing synchronizing call ("Sync(scope)",
	// "GatherHier", ...); "" for a trailing segment with no barrier.
	Sync string `json:"sync,omitempty"`
	// Loop marks segments inside a synchronizing loop: the edges are per
	// iteration.
	Loop bool `json:"loop,omitempty"`
	// Edges are the raw sends, sorted by (src, dst, tag).
	Edges []CommEdge `json:"edges,omitempty"`
	// Collectives are collective-library calls (each expands to its own
	// edges at run time), sorted.
	Collectives []string `json:"collectives,omitempty"`
}

// CommEdge is one static send: each endpoint and the tag are either a
// decimal literal the analysis could fold or "*" (statically unknown).
type CommEdge struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Tag string `json:"tag"`
}

// Normalize sorts the document into its canonical order so encoding is
// deterministic regardless of construction order.
func (d *CommGraphDoc) Normalize() {
	sort.Slice(d.Packages, func(i, j int) bool { return d.Packages[i].Path < d.Packages[j].Path })
	for pi := range d.Packages {
		p := &d.Packages[pi]
		sort.Slice(p.Funcs, func(i, j int) bool {
			if p.Funcs[i].File != p.Funcs[j].File {
				return p.Funcs[i].File < p.Funcs[j].File
			}
			return p.Funcs[i].Line < p.Funcs[j].Line
		})
		for fi := range p.Funcs {
			for si := range p.Funcs[fi].Steps {
				s := &p.Funcs[fi].Steps[si]
				sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i].less(s.Edges[j]) })
				sort.Strings(s.Collectives)
			}
		}
	}
}

func (e CommEdge) less(o CommEdge) bool {
	if e.Src != o.Src {
		return e.Src < o.Src
	}
	if e.Dst != o.Dst {
		return e.Dst < o.Dst
	}
	return e.Tag < o.Tag
}

// WriteJSON encodes the document canonically (normalized, indented,
// stable key order via the struct definitions).
func (d *CommGraphDoc) WriteJSON(w io.Writer) error {
	d.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("obsv: writing commgraph: %w", err)
	}
	return nil
}

// ParseCommGraph decodes and validates a commgraph document.
func ParseCommGraph(r io.Reader) (*CommGraphDoc, error) {
	var d CommGraphDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("obsv: parsing commgraph: %w", err)
	}
	if d.Schema != CommGraphSchema {
		return nil, fmt.Errorf("obsv: commgraph schema %q, want %q", d.Schema, CommGraphSchema)
	}
	return &d, nil
}

// Delivery is one observed (src, dst, tag) message class from a run's
// JSONL events, with its occurrence count and total bytes.
type Delivery struct {
	Src, Dst, Tag int
	Count         int
	Bytes         int64
}

// ReadDeliveries extracts the delivery events from a JSONL event stream
// (the format WriteJSONL emits), aggregated by (src, dst, tag) and
// sorted. Unknown lines and non-delivery kinds are skipped, so the
// reader accepts a full mixed event file.
func ReadDeliveries(r io.Reader) ([]Delivery, error) {
	type key struct{ src, dst, tag int }
	agg := map[key]*Delivery{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e jsonlEvent
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("obsv: events line %d: %w", line, err)
		}
		if e.Kind != KindDelivery.String() {
			continue
		}
		k := key{int(e.Src), int(e.Dst), int(e.Tag)}
		d := agg[k]
		if d == nil {
			d = &Delivery{Src: k.src, Dst: k.dst, Tag: k.tag}
			agg[k] = d
		}
		d.Count++
		d.Bytes += e.Bytes
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obsv: reading events: %w", err)
	}
	out := make([]Delivery, 0, len(agg))
	for _, d := range agg {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out, nil
}

// endpointMatches reports whether a static endpoint/tag pattern ("*" or
// a decimal literal) covers the concrete runtime value.
func endpointMatches(pattern string, v int) bool {
	if pattern == "*" || pattern == "" {
		return true
	}
	n, err := strconv.Atoi(pattern)
	return err == nil && n == v
}

// Matches reports whether the static edge explains the delivery.
func (e CommEdge) Matches(d Delivery) bool {
	return endpointMatches(e.Src, d.Src) && endpointMatches(e.Dst, d.Dst) && endpointMatches(e.Tag, d.Tag)
}

// EdgeRef locates one static edge for reporting.
type EdgeRef struct {
	Pkg, Func string
	Step      int
	Edge      CommEdge
}

func (r EdgeRef) String() string {
	return fmt.Sprintf("%s.%s step %d: (%s -> %s, tag %s)", r.Pkg, r.Func, r.Step, r.Edge.Src, r.Edge.Dst, r.Edge.Tag)
}

// ConformanceReport is the outcome of checking a run against the static
// communication graph.
type ConformanceReport struct {
	// Unexplained are observed deliveries no static edge covers:
	// untracked communication, the fatal direction.
	Unexplained []Delivery
	// Unobserved are static edges with a fully concrete tag that the
	// run never exercised: advisory (dead code, or a run that simply
	// does not take that path).
	Unobserved []EdgeRef
	// Deliveries and Edges count what was checked.
	Deliveries, Edges int
}

// OK reports whether the run conforms: every observed delivery is
// explained by the static graph.
func (r *ConformanceReport) OK() bool { return len(r.Unexplained) == 0 }

// String renders the report for humans.
func (r *ConformanceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d delivery class(es) against %d static edge(s)\n", r.Deliveries, r.Edges)
	if r.OK() {
		b.WriteString("every observed delivery is explained by a static edge\n")
	}
	for _, d := range r.Unexplained {
		fmt.Fprintf(&b, "UNEXPLAINED delivery (src %d -> dst %d, tag %d) x%d, %d bytes: no static edge declares it\n",
			d.Src, d.Dst, d.Tag, d.Count, d.Bytes)
	}
	for _, e := range r.Unobserved {
		fmt.Fprintf(&b, "unobserved static edge %s (advisory)\n", e)
	}
	return b.String()
}

// CheckConformance verifies every delivery of the run against the
// static graph. The containment direction is sound for what the static
// analysis models — raw Ctx.Send edges and collective-library tags —
// because the exporter over-approximates unknown endpoints to "*": a
// delivery is only unexplained when even the over-approximation cannot
// produce it.
func CheckConformance(doc *CommGraphDoc, deliveries []Delivery) *ConformanceReport {
	rep := &ConformanceReport{Deliveries: len(deliveries)}
	type flatEdge struct {
		ref  EdgeRef
		seen bool
	}
	var edges []*flatEdge
	for _, p := range doc.Packages {
		for _, f := range p.Funcs {
			for _, s := range f.Steps {
				for _, e := range s.Edges {
					edges = append(edges, &flatEdge{ref: EdgeRef{Pkg: p.Path, Func: f.Name, Step: s.Index, Edge: e}})
				}
			}
		}
	}
	rep.Edges = len(edges)
	for _, d := range deliveries {
		explained := false
		for _, fe := range edges {
			if fe.ref.Edge.Matches(d) {
				fe.seen = true
				explained = true
				// Keep scanning: every edge that can produce the
				// delivery counts as exercised.
			}
		}
		if !explained {
			rep.Unexplained = append(rep.Unexplained, d)
		}
	}
	for _, fe := range edges {
		if !fe.seen && fe.ref.Edge.Tag != "*" && fe.ref.Edge.Tag != "" {
			rep.Unobserved = append(rep.Unobserved, fe.ref)
		}
	}
	return rep
}
