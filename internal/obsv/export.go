package obsv

import (
	"encoding/json"
	"fmt"
	"io"
)

// Exporters. All three formats render a []Event snapshot
// deterministically (events are already in emission order), so they
// are golden-testable.

// jsonlEvent is the JSONL wire form of an Event. Fields that do not
// apply to the event's kind are omitted.
type jsonlEvent struct {
	Kind  string  `json:"kind"`
	Step  int32   `json:"step"`
	Pid   int32   `json:"pid"`
	Src   int32   `json:"src"`
	Dst   int32   `json:"dst"`
	Tag   int32   `json:"tag"`
	Level int32   `json:"level"`
	Bytes int64   `json:"bytes,omitempty"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Pred  float64 `json:"pred,omitempty"`
	Name  string  `json:"name,omitempty"`
	Scope string  `json:"scope,omitempty"`
}

// WriteJSONL writes one JSON object per line per event. Integer
// identity fields always appear (-1 means "not applicable"; 0 is a
// valid pid/step/tag and must not vanish).
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonlEvent{
			Kind: e.Kind.String(), Step: e.Step, Pid: e.Pid,
			Src: e.Src, Dst: e.Dst, Tag: e.Tag,
			Level: e.Level, Bytes: e.Bytes,
			Start: e.Start, End: e.End, Pred: e.Pred,
			Name: e.Name, Scope: e.Scope,
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("obsv: writing jsonl: %w", err)
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event (the JSON Array/Object format
// understood by chrome://tracing and Perfetto). Timestamps are
// nominally microseconds; for virtual-clock runs the unit is one
// fastest-machine time unit instead (the viewer only cares about
// relative magnitudes).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the events as a Chrome trace. Supersteps and
// collectives become complete ("ph":"X") slices; barrier waits become
// per-processor slices; deliveries and chaos injections become instant
// ("ph":"i") events on the receiving processor's track. The trace
// process is the engine (pid 0); each HBSP processor is a thread.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{Unit: "ms"}
	// Metadata: name the engine-wide track (tid -1 renders oddly, remap
	// to a high tid) and each processor thread lazily.
	const engineTid = 1_000_000
	tid := func(pid int32) int32 {
		if pid < 0 {
			return engineTid
		}
		return pid
	}
	for _, e := range events {
		ce := chromeEvent{Name: e.Name, Cat: e.Kind.String(), Pid: 0, Tid: tid(e.Pid), Ts: e.Start}
		switch e.Kind {
		case KindSuperstep:
			d := e.Dur()
			ce.Ph, ce.Dur = "X", &d
			ce.Args = map[string]any{
				"step": e.Step, "level": e.Level, "scope": e.Scope,
				"bytes": e.Bytes, "pred": e.Pred, "measured": d,
			}
		case KindCollective:
			d := e.Dur()
			ce.Ph, ce.Dur = "X", &d
			ce.Args = map[string]any{"bytes": e.Bytes}
		case KindBarrier:
			d := e.Dur()
			ce.Ph, ce.Dur = "X", &d
			ce.Name = "barrier"
			ce.Args = map[string]any{"step": e.Step, "level": e.Level, "scope": e.Scope}
		case KindDelivery:
			ce.Ph, ce.S = "i", "t"
			ce.Name = "delivery"
			ce.Args = map[string]any{
				"step": e.Step, "src": e.Src, "dst": e.Dst,
				"tag": e.Tag, "bytes": e.Bytes,
			}
		case KindChaos:
			ce.Ph, ce.S = "i", "p"
			ce.Name = "chaos:" + e.Name
			ce.Args = map[string]any{"step": e.Step, "src": e.Src, "dst": e.Dst}
		case KindReorg:
			ce.Ph, ce.S = "i", "g"
			ce.Name = e.Name
			ce.Args = map[string]any{"epoch": e.Step, "moved": e.Src}
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obsv: writing chrome trace: %w", err)
	}
	return nil
}
