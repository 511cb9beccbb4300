package obsv

import (
	"fmt"

	"hbspk/internal/cost"
	"hbspk/internal/trace"
)

// Attribution joins the cost model's predicted per-superstep time
// T_i(λ) = w_i + g·h + L_{i,j} against what the engine measured,
// mirroring the paper's Tables 2–3 (predicted vs measured with an
// accuracy factor per row).

// AttribRow is one superstep of the attribution report.
type AttribRow struct {
	Step  int
	Label string
	Scope string
	Level int
	Bytes int64
	// Pred is the model's T_i; Measured the engine's span length
	// (virtual units or µs, per the engine); Ratio is Measured/Pred
	// (>1 = slower than the model, 0 when Pred is 0).
	Pred, Measured, Ratio float64
}

// Attribute extracts attribution rows from a span snapshot's
// superstep events, in execution order.
func Attribute(events []Event) []AttribRow {
	var rows []AttribRow
	for _, e := range events {
		if e.Kind != KindSuperstep {
			continue
		}
		row := AttribRow{
			Step: int(e.Step), Label: e.Name, Scope: e.Scope,
			Level: int(e.Level), Bytes: e.Bytes,
			Pred: e.Pred, Measured: e.Dur(),
		}
		if row.Pred > 0 {
			row.Ratio = row.Measured / row.Pred
		}
		rows = append(rows, row)
	}
	return rows
}

// AttribTable renders attribution rows as a table with a totals line.
func AttribTable(title string, rows []AttribRow) *trace.Table {
	tb := trace.NewTable(title,
		"#", "label", "scope", "lvl", "bytes", "predicted", "measured", "meas/pred")
	var predSum, measSum float64
	for _, r := range rows {
		ratio := "-"
		if r.Pred > 0 {
			ratio = fmt.Sprintf("%.3f", r.Ratio)
		}
		tb.Add(
			fmt.Sprintf("%d", r.Step), r.Label, r.Scope,
			fmt.Sprintf("%d", r.Level), fmt.Sprintf("%d", r.Bytes),
			fmt.Sprintf("%.4g", r.Pred), fmt.Sprintf("%.4g", r.Measured), ratio,
		)
		predSum += r.Pred
		measSum += r.Measured
	}
	total := "-"
	if predSum > 0 {
		total = fmt.Sprintf("%.3f", measSum/predSum)
	}
	tb.Add("", "total", "", "", "",
		fmt.Sprintf("%.4g", predSum), fmt.Sprintf("%.4g", measSum), total)
	return tb
}

// Pair is one superstep of a Join: the closed form's step and the run's
// step of the same scope and the same ordinal among that scope's steps.
// A step one side has and the other lacks leaves its partner nil.
type Pair struct {
	// Scope is the scope machine's M_{i,j}; Ordinal counts the scope's
	// earlier steps on the pair's side.
	Scope   string
	Ordinal int
	Pred    *cost.Step
	Run     *trace.Step
}

// Joined is a closed form set beside a run superstep by superstep.
type Joined struct {
	G     float64
	Pairs []Pair
	// PredTail and Tail are the work after the last Sync, which the
	// totals hold and no step does: bd.Tail, and the run's rep.Total
	// minus its latest step End.
	PredTail, Tail float64
	// Pred and Run are the two totals, bd.Total() and rep.Total.
	Pred, Run float64
}

// Join pairs a closed form's steps with a run's (DESIGN §5.9). A
// Parallel step flattens into its per-scope sub-steps, which run at the
// same time, as the run's steps of those scopes do; each step then pairs
// with the other side's step of the same scope and ordinal within that
// scope. Pairs come in the closed form's order, then the run's steps the
// closed form does not price, in run order: no step is dropped.
func Join(bd cost.Breakdown, rep *trace.Report) Joined {
	j := Joined{G: bd.G, PredTail: bd.Tail, Pred: bd.Total(), Run: rep.Total}
	priced := map[string][]int{} // each scope's priced steps, as indices into j.Pairs
	for _, s := range flatten(bd.Steps) {
		scope := s.Scope.Label()
		priced[scope] = append(priced[scope], len(j.Pairs))
		j.Pairs = append(j.Pairs, Pair{Scope: scope, Ordinal: len(priced[scope]) - 1, Pred: s})
	}
	ran := map[string]int{}
	end := 0.0
	for i := range rep.Steps {
		s := &rep.Steps[i]
		ord := ran[s.ScopeLabel]
		ran[s.ScopeLabel]++
		end = max(end, s.End)
		if at := priced[s.ScopeLabel]; ord < len(at) {
			j.Pairs[at[ord]].Run = s
		} else {
			j.Pairs = append(j.Pairs, Pair{Scope: s.ScopeLabel, Ordinal: ord, Run: s})
		}
	}
	j.Tail = rep.Total - end
	return j
}

// flatten returns a breakdown's per-scope steps, each Parallel step
// replaced by its sub-steps.
func flatten(steps []cost.Step) []*cost.Step {
	var out []*cost.Step
	for i := range steps {
		if s := &steps[i]; len(s.Parallel) > 0 {
			out = append(out, flatten(s.Parallel)...)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// AttributeBreakdown renders Join(bd, rep) term by term: each pair's w,
// g·h, L and T as the closed form prices them beside what the run
// charged, a "-" for an unpaired step's missing partner, the run's work
// after its last Sync as priced and as run, and the totals, whose ratio
// is rep.Total ÷ bd.Total().
func AttributeBreakdown(title string, bd cost.Breakdown, rep *trace.Report) *trace.Table {
	j := Join(bd, rep)
	tb := trace.NewTable(title, "scope", "#", "step",
		"w pred", "w run", "g*h pred", "g*h run", "L pred", "L run", "T pred", "T run", "run/pred")
	num := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	ratio := func(run, pred float64) string {
		if pred > 0 {
			return fmt.Sprintf("%.3f", run/pred)
		}
		return "-"
	}
	for _, p := range j.Pairs {
		pred, run := [4]string{"-", "-", "-", "-"}, [4]string{"-", "-", "-", "-"}
		label, r := "", "-"
		if s := p.Run; s != nil {
			label = s.Label
			run = [4]string{num(s.W), num(s.Comm), num(s.Sync), num(s.Time)}
		}
		if s := p.Pred; s != nil {
			label = s.Label
			pred = [4]string{num(s.Work), num(j.G * s.H), num(s.Sync), num(s.Time(j.G))}
			if p.Run != nil {
				r = ratio(p.Run.Time, s.Time(j.G))
			}
		}
		tb.Add(p.Scope, fmt.Sprintf("%d", p.Ordinal), label,
			pred[0], run[0], pred[1], run[1], pred[2], run[2], pred[3], run[3], r)
	}
	tb.Add("", "", "after last Sync", num(j.PredTail), num(j.Tail), "", "", "", "", num(j.PredTail), num(j.Tail), ratio(j.Tail, j.PredTail))
	tb.Add("", "", "total", "", "", "", "", "", "", num(j.Pred), num(j.Run), ratio(j.Run, j.Pred))
	return tb
}
