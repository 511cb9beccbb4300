package hbsp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/testutil"
	"hbspk/internal/trace"
)

// What a steady-state superstep reuses — the scope's one cyclic barrier,
// the chunked step record, the registry indexed by pid and scope id —
// checked where reuse could go wrong: across chunk boundaries, with an
// observer watching, and when a fault lands on a barrier that has already
// served a hundred generations.

// The step record grows in chunks and is flat in the Report: same steps,
// same order, contiguous Index, every field as a plain append would have
// built, to the bit — labels built afresh for every step, from a handful
// of values, included. Each sequence is 6 chunks of steps and 7 more, so
// the last chunk is partly filled. Where a sequence has a ceiling, the
// log's own bytes (its step and shape chunks by capacity) may grow by no
// more per step over chunks 3 to 6: 32 B a step whose terms repeat
// earlier ones, 128 B when every step's are new. A record that kept every
// step whole was 112 B in every case.
func TestStepLogFlattensInOrder(t *testing.T) {
	if (&stepLog{}).flat() != nil {
		t.Error("an empty log flattens to a non-nil slice")
	}
	rng := rand.New(rand.NewSource(7))
	per := chunkOf[stepRec]()
	// shaped is a step of label and scope k whose terms are set by v; its
	// times, which a step never shares, by i.
	shaped := func(i, k int, v float64) trace.Step {
		return trace.Step{
			Index: i, Shape: &trace.Shape{Label: fmt.Sprintf("step %d of a long run", k),
				ScopeLabel: fmt.Sprintf("M_{%d,%d}", k%3, k%2), ScopeName: fmt.Sprint("cluster", k%3),
				Level: k % 3, Participants: 4, W: v, H: 2 * v, Comm: 3 * v, Sync: 1,
				Flows: 12, Bytes: int(768 * v), GatingPid: k % 4, Imbalance: 1 + v},
			Time: float64(i) + 0.5, Start: float64(i), End: float64(i) + 1,
		}
	}
	negZero := math.Copysign(0, -1)
	for _, seq := range []struct {
		name    string
		step    func(i int) trace.Step
		perStep float64 // 0: no ceiling
	}{
		{"random", func(i int) trace.Step {
			return trace.Step{
				Index: i,
				Shape: &trace.Shape{
					Label:        fmt.Sprintf("step %d of a long run", rng.Intn(5)),
					ScopeLabel:   fmt.Sprintf("M_{%d,%d}", rng.Intn(3), rng.Intn(2)),
					ScopeName:    fmt.Sprint("cluster", rng.Intn(3)),
					Level:        rng.Intn(3),
					Participants: 1 + rng.Intn(8),
					W:            rng.Float64(),
					H:            rng.Float64(),
					Comm:         rng.Float64(),
					Sync:         rng.Float64(),
					Flows:        rng.Intn(64),
					Bytes:        rng.Intn(1 << 30),
					GatingPid:    rng.Intn(9) - 1,
					Imbalance:    rng.Float64(),
				},
				Time:  rng.Float64(),
				Start: rng.Float64(),
				End:   rng.Float64(),
			}
		}, 0},
		{"repeating", func(i int) trace.Step { return shaped(i, 0, 1) }, 32},
		// 25 steps a round on 16 (label, scope) pairs, as coll_tcp's round
		// has them: the first 9 pairs come twice a round, with other terms
		// the second time, so each alternates between two shapes.
		{"cycling", func(i int) trace.Step { j := i % 25; return shaped(i, j%16, float64(j)) }, 32},
		{"distinct", func(i int) trace.Step { return shaped(i, 0, float64(i)) }, 128},
		// Terms equal as floats but not as bits are different terms (two
		// shapes), and a NaN is the same term as itself (shared).
		{"signed zero and NaN", func(i int) trace.Step {
			s := shaped(i, 0, []float64{0, negZero}[i%2])
			s.Imbalance = math.NaN()
			return s
		}, 32},
	} {
		t.Run(seq.name, func(t *testing.T) {
			var log stepLog
			var want []trace.Step
			var warm, full int
			for i := 0; i < 6*per+7; i++ {
				switch i {
				case 2 * per:
					warm = logBytes(&log)
				case 6 * per:
					full = logBytes(&log)
				}
				s := seq.step(i)
				log.add(s.Shape, s.Time, s.Start, s.End)
				want = append(want, s)
				if log.len() != len(want) {
					t.Fatalf("after %d steps len() = %d", len(want), log.len())
				}
			}
			perStep := float64(full-warm) / float64(4*per)
			t.Logf("%.1f bytes a step", perStep)
			if seq.perStep > 0 && perStep > seq.perStep {
				t.Errorf("the log grows by %.1f bytes a step, want at most %.0f", perStep, seq.perStep)
			}
			got := log.flat()
			if len(got) != len(want) || cap(got) != len(want) {
				t.Fatalf("flat() has %d steps (cap %d), want %d", len(got), cap(got), len(want))
			}
			for i := range want {
				if !sameStep(got[i], want[i]) {
					t.Fatalf("step %d flattened to %+v %+v, appended as %+v %+v", i, got[i], *got[i].Shape, want[i], *want[i].Shape)
				}
			}
		})
	}
}

// logBytes is what a log's step and shape chunks hold, by capacity.
func logBytes(l *stepLog) int {
	n := 0
	for _, c := range l.steps.c {
		n += cap(c) * int(unsafe.Sizeof(stepRec{}))
	}
	for _, c := range l.shapes.c {
		n += cap(c) * int(unsafe.Sizeof(stepShape{}))
	}
	return n
}

// sameStep reports whether a and b hold the same values, their shapes'
// fields and their own, floats compared by their bits: the values the
// steps point to, never the pointers.
func sameStep(a, b trace.Step) bool {
	if !sameFields(reflect.ValueOf(*a.Shape), reflect.ValueOf(*b.Shape)) {
		return false
	}
	a.Shape, b.Shape = nil, nil
	return sameFields(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameFields(va, vb reflect.Value) bool {
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// The step record is memory the garbage collector never scans, and costs
// less than what it stands for in the Report — a stepRec less than a
// trace.Step, a stepShape less than a trace.Shape: a field that held a
// pointer (a string, a slice) would have every chunk of a long run
// scanned again at every cycle. A step whose shape repeats costs its
// stepRec alone, 32 bytes, in the log, and its trace.Step, at most 40, in
// the Report.
func TestStepRecordHoldsNoPointer(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Array:
			return pointerFree(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return t.Kind() > reflect.Invalid && t.Kind() <= reflect.Complex128
	}
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(stepRec{}), reflect.TypeOf(trace.Step{})},
		{reflect.TypeOf(stepShape{}), reflect.TypeOf(trace.Shape{})},
	} {
		rec, flat := pair[0], pair[1]
		if !pointerFree(rec) {
			t.Errorf("%v holds a pointer", rec)
		}
		if rec.Size() >= flat.Size() {
			t.Errorf("%v is %d bytes, %v %d", rec, rec.Size(), flat, flat.Size())
		}
	}
	if n := unsafe.Sizeof(stepRec{}); n > 32 {
		t.Errorf("stepRec is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(trace.Step{}); n > 40 {
		t.Errorf("trace.Step is %d bytes, want at most 40", n)
	}
}

// twoLevel runs rounds of a cluster superstep followed by a root
// superstep, one neighbour message in each, so a run of it crosses
// several chunks of the step record on two scopes' barriers. Every Sync
// takes a label built afresh, one of three values per scope, and
// processor 0 calls mark, when non-nil, after every round.
func twoLevel(rounds int, mark func(r int)) Program {
	return func(c Ctx) error {
		cluster := c.Tree().ScopeAt(c.Self(), 1)
		peers := cluster.Pids()
		for r := 0; r < rounds; r++ {
			if err := c.Send(peers[(slices.Index(peers, c.Pid())+1)%len(peers)], 1, []byte{byte(r)}); err != nil {
				return err
			}
			if err := c.Sync(cluster, fmt.Sprintf("in the cluster, phase %d", r%3)); err != nil {
				return err
			}
			if err := c.Send((c.Pid()+1)%c.NProcs(), 2, []byte{byte(r), byte(c.Pid())}); err != nil {
				return err
			}
			if err := SyncAll(c, fmt.Sprintf("across the machine, phase %d", r%3)); err != nil {
				return err
			}
			if mark != nil && c.Pid() == 0 {
				mark(r)
			}
		}
		return nil
	}
}

// runTwoLevel runs twoLevel on the engine named, with rec observing.
func runTwoLevel(t *testing.T, engine string, rec *obsv.Recorder, rounds int, mark func(r int)) *trace.Report {
	t.Helper()
	tr := superstepTree()
	var rep *trace.Report
	var err error
	if engine == "virtual" {
		eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Obsv = rec
		rep, err = eng.Run(twoLevel(rounds, mark))
	} else {
		eng := NewConcurrent(tr)
		eng.Obsv = rec
		rep, err = eng.Run(twoLevel(rounds, mark))
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// On both engines the Report's steps are the Superstep events the
// recorder saw, in the order it saw them (its ring is the plain append
// the record is checked against), with Index counting from zero, and each
// step's scope fields are its scope machine's.
func TestReportStepsAcrossChunkBoundaries(t *testing.T) {
	rounds := 2 * chunkOf[stepRec]() // three steps a round: six chunks' worth
	scopes := map[string]*model.Machine{}
	superstepTree().Root.Walk(func(m *model.Machine) { scopes[m.Label()] = m })
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			rec := obsv.New(obsv.Config{Capacity: 1 << 14, SampleEvery: -1})
			rep := runTwoLevel(t, engine, rec, rounds, nil)
			if want := 3 * rounds; len(rep.Steps) != want || cap(rep.Steps) != want {
				t.Fatalf("%d steps (cap %d), want %d", len(rep.Steps), cap(rep.Steps), want)
			}
			var seen []obsv.Event
			for _, ev := range rec.Events() {
				if ev.Kind == obsv.KindSuperstep {
					seen = append(seen, ev)
				}
			}
			if len(seen) != len(rep.Steps) {
				t.Fatalf("%d superstep events for %d steps", len(seen), len(rep.Steps))
			}
			for i, s := range rep.Steps {
				ev := seen[i]
				if s.Index != i || int(ev.Step) != i || s.Label != ev.Name || s.ScopeLabel != ev.Scope ||
					s.Level != int(ev.Level) || s.Start != ev.Start || s.End != ev.End || int64(s.Bytes) != ev.Bytes {
					t.Fatalf("step %d = %+v, recorded as %+v", i, s, ev)
				}
				m := scopes[s.ScopeLabel]
				if m == nil || s.ScopeName != m.Name || s.Level != m.Level || s.Participants != len(m.Pids()) {
					t.Fatalf("step %d = %+v, of scope %+v", i, s, m)
				}
			}
		})
	}
}

// A Report's steps share their shapes: a Concurrent run of twoLevel,
// whose steps repeat a few shapes (three labels per scope level, the same
// terms every round), returns steps that point to exactly as many Shapes
// as the run's log holds, one per distinct value, and never two equal
// ones.
func TestReportStepsShareShapes(t *testing.T) {
	rep := runTwoLevel(t, "concurrent", nil, 2*chunkOf[stepRec](), nil)
	var log stepLog // the log the run kept, rebuilt from what it returned
	pointers, values := map[*trace.Shape]bool{}, map[trace.Shape]bool{}
	for _, s := range rep.Steps {
		log.add(s.Shape, s.Time, s.Start, s.End)
		pointers[s.Shape], values[*s.Shape] = true, true
	}
	t.Logf("%d steps point to %d shapes", len(rep.Steps), len(pointers))
	if len(pointers) != log.shapes.n || len(values) != log.shapes.n {
		t.Errorf("%d steps point to %d shapes of %d distinct values; the log holds %d shapes",
			len(rep.Steps), len(pointers), len(values), log.shapes.n)
	}
	if len(pointers) > 9 {
		t.Errorf("%d shapes, want at most 9: three labels on each of two clusters and the root", len(pointers))
	}
}

// A long run keeps no per-step object: in a run whose every Sync takes a
// label built afresh, the heap objects that survive a collection grow by
// a chunk of the step record every 256 steps and by nothing else. A
// record that kept each step's label string kept one object per step.
func TestStepRecordRetainsNoPerStepObject(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes what the heap holds")
	}
	const warm, rounds = 20, 20 + 400 // three steps a round
	for _, engine := range []string{"virtual", "concurrent"} {
		t.Run(engine, func(t *testing.T) {
			var before, after runtime.MemStats
			// Two collections: the second empties the wire arena's pools,
			// whose contents the first only moves to their victim caches.
			settle := func(m *runtime.MemStats) {
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(m)
			}
			runTwoLevel(t, engine, nil, rounds, func(r int) {
				switch r {
				case warm - 1:
					settle(&before)
				case rounds - 1:
					settle(&after)
				}
			})
			perStep := (float64(after.HeapObjects) - float64(before.HeapObjects)) / (3 * (rounds - warm))
			t.Logf("%.3f heap objects retained per recorded step", perStep)
			if perStep >= 0.1 {
				t.Errorf("%.3f heap objects retained per recorded step, want under 0.1", perStep)
			}
		})
	}
}

// With a recorder installed a warm run emits what it always did: one
// barrier span per processor per superstep — entered after the previous
// one was left, left no earlier than entered — and one delivery event per
// message, stamped after the barrier that delivered it.
func TestObserverSeesEveryBarrierAndDelivery(t *testing.T) {
	const steps, size = 150, 64
	tr := superstepTree()
	p := tr.NProcs()
	rec := obsv.New(obsv.Config{Capacity: 1 << 14})
	eng := NewConcurrent(tr)
	eng.Obsv = rec
	if _, err := eng.Run(allToAll(size, 0, steps, func() {}, func() {})); err != nil {
		t.Fatal(err)
	}
	type key struct{ step, pid, src int32 }
	barriers := map[key]obsv.Event{}
	deliveries := map[key]obsv.Event{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obsv.KindBarrier:
			if _, dup := barriers[key{ev.Step, ev.Pid, -1}]; dup {
				t.Fatalf("two barrier spans for p%d step %d", ev.Pid, ev.Step)
			}
			if ev.Scope != tr.Root.Label() || int(ev.Level) != tr.Root.Level || ev.Start > ev.End || ev.Start <= 0 {
				t.Fatalf("barrier span %+v", ev)
			}
			barriers[key{ev.Step, ev.Pid, -1}] = ev
		case obsv.KindDelivery:
			if _, dup := deliveries[key{ev.Step, ev.Dst, ev.Src}]; dup {
				t.Fatalf("two delivery events for %d→%d step %d", ev.Src, ev.Dst, ev.Step)
			}
			if ev.Tag != 1 || ev.Bytes != size || ev.Start != ev.End || ev.Src == ev.Dst {
				t.Fatalf("delivery event %+v", ev)
			}
			deliveries[key{ev.Step, ev.Dst, ev.Src}] = ev
		}
	}
	if len(barriers) != steps*p || len(deliveries) != steps*p*(p-1) {
		t.Fatalf("%d barrier spans and %d deliveries, want %d and %d", len(barriers), len(deliveries), steps*p, steps*p*(p-1))
	}
	for k, b := range barriers {
		if prev, ok := barriers[key{k.step - 1, k.pid, -1}]; ok && b.Start < prev.End {
			t.Errorf("p%d entered barrier %d at %g, before leaving %d at %g", k.pid, k.step, b.Start, k.step-1, prev.End)
		}
	}
	for k, d := range deliveries {
		if b := barriers[key{k.step, k.pid, -1}]; d.Start < b.End {
			t.Errorf("delivery %d→%d of step %d stamped %g, before its barrier's exit %g", k.src, k.pid, k.step, d.Start, b.End)
		}
	}
}

// lateFaults is twoLevel made fault-tolerant: a death notice is logged
// with the ordinal of the Sync that returned it and the Sync is retried,
// and a reorganization is followed to the leaf's new cluster. before
// runs ahead of every Sync with the processor's ordinal.
func lateFaults(rounds int, logs [][]string, before func(pid, ord int)) Program {
	return func(c Ctx) error {
		ord, done := 0, 0
		sync := func(scope func() *model.Machine, label string) error {
			for {
				before(c.Pid(), ord)
				s := scope()
				err := c.Sync(s, label)
				ord++
				var pf *ErrPeerFailed
				switch {
				case err == nil:
					return nil
				case !errors.As(err, &pf):
					return err
				}
				logs[c.Pid()] = append(logs[c.Pid()], fmt.Sprintf("sync %d, level %d: %v", ord-1, s.Level, err))
			}
		}
		cluster := func() *model.Machine { return c.Tree().ScopeAt(c.Self(), 1) }
		root := func() *model.Machine { return c.Tree().Root }
		for done < rounds {
			if err := sync(cluster, "in"); err != nil {
				return err
			}
			c.Charge(1)
			if err := sync(root, "all"); err != nil {
				return err
			}
			done++
		}
		return nil
	}
}

// A crash-stop landing on scopes whose barriers have already been reused
// for more than a hundred generations: every processor is told the same
// thing at the same Sync as on the virtual engine, whose coordinator
// never had a barrier to reuse. The victim dies while its cluster peer is
// parked, so the cancel latches the cluster's name.
func TestLateFaultsOnAReusedBarrier(t *testing.T) {
	const rounds = 160
	for _, tc := range []struct {
		name string
		plan *fabric.ChaosPlan
		want map[int]int // notices per pid
	}{
		{"crash", &fabric.ChaosPlan{Crashes: []fabric.Crash{{Pid: 1, AtStep: 241}}},
			map[int]int{0: 2, 2: 1, 3: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(engine string) [][]string {
				tr := superstepTree()
				logs := make([][]string, tr.NProcs())
				// The victim dawdles before the Sync it dies in, so that its
				// cluster peer is parked at their barrier when it does.
				prog := lateFaults(rounds, logs, func(pid, ord int) {
					if engine == "concurrent" && pid == 1 && ord == tc.plan.Crashes[0].AtStep {
						time.Sleep(20 * time.Millisecond)
					}
				})
				var err error
				if engine == "virtual" {
					err = runElasticVirtual(t, tr, tc.plan, 0, 0, prog)
				} else {
					err = runElasticConcurrent(t, tr, tc.plan, prog)
				}
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return logs
			}
			want := run("virtual")
			got := run("concurrent")
			for pid := range want {
				if !slices.Equal(got[pid], want[pid]) {
					t.Errorf("p%d on concurrent:\n  %v\non virtual:\n  %v", pid, got[pid], want[pid])
				}
				if n, ok := tc.want[pid]; ok && len(want[pid]) != n {
					t.Errorf("p%d was told %d things, want %d: %v", pid, len(want[pid]), n, want[pid])
				}
			}
		})
	}
}
