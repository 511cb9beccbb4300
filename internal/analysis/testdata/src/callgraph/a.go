// Package callgraph is the golden fixture for the synchronizes
// fixpoint's edge cases: mutual recursion must converge, method values,
// function values and package-level variables holding them must count
// as boundaries at the point the value is taken, and interface method calls on a Ctx-shaped receiver must
// stay recognized. The diagnostics are commgraph's unmatched-send
// reports — each fires only if the preceding call is known to
// synchronize, so every `want` below is a positive fixpoint fact.
package callgraph

type Machine struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

// --- mutual recursion: pingSync <-> pongSync, the barrier bottoms out
// in pongSync. The fixpoint must converge and mark both.

func pingSync(c Ctx, depth int) error {
	if depth == 0 {
		return nil
	}
	return pongSync(c, depth-1)
}

func pongSync(c Ctx, depth int) error {
	if depth == 0 {
		return c.Sync(nil, "bottom")
	}
	return pingSync(c, depth-1)
}

func afterMutualRecursion(c Ctx) error {
	if err := pingSync(c, 3); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("x")) // want `unmatched send: no Sync follows`
}

// --- method value: the barrier is taken as a value and called through
// a variable. The creator is conservatively a synchronizer.

func viaMethodValue(c Ctx) error {
	barrier := c.Sync
	return barrier(nil, "indirect")
}

func afterMethodValue(c Ctx) error {
	if err := viaMethodValue(c); err != nil {
		return err
	}
	return c.Send(1, 1, []byte("y")) // want `unmatched send: no Sync follows`
}

// --- function value: a local synchronizing helper escapes into a
// variable before the call.

func syncHelper(c Ctx) error { return c.Sync(nil, "helper") }

func viaFuncValue(c Ctx) error {
	f := syncHelper
	return f(c)
}

func afterFuncValue(c Ctx) error {
	if err := viaFuncValue(c); err != nil {
		return err
	}
	return c.Send(1, 2, []byte("z")) // want `unmatched send: no Sync follows`
}

// --- package-level variable: a table of calls built once, whose
// initializer's function literal synchronizes. Reading the table takes
// the value; a table of pure calls adds no edge.

var steps = map[string]func(Ctx) error{
	"sync": func(c Ctx) error { return c.Sync(nil, "table") },
}

func viaPackageVar(c Ctx) error { return steps["sync"](c) }

func afterPackageVar(c Ctx) error {
	if err := viaPackageVar(c); err != nil {
		return err
	}
	return c.Send(1, 8, []byte("v")) // want `unmatched send: no Sync follows`
}

var pureSteps = map[string]func(Ctx) error{"pure": pureStep}

func viaPurePackageVar(c Ctx) error { return pureSteps["pure"](c) }

// --- interface call: Sync resolved through an embedded interface's
// method set is still a structural boundary.

type Worker interface {
	Ctx
	Work() error
}

func afterInterfaceSync(w Worker) error {
	if err := w.Sync(nil, "iface"); err != nil {
		return err
	}
	return w.Send(1, 3, []byte("w")) // want `unmatched send: no Sync follows`
}

// --- value-position arguments: a synchronizing function value or
// method value handed to a combiner-taking helper (the collective
// argument shape) makes the passer a synchronizer — the callee may
// invoke it, and pidtaint's alignment summaries lean on exactly this
// edge. Asserted through the fixpoint in TestCallGraphFixpoint; the
// sends stay undiagnosed because apply itself is not a structural
// boundary.

func apply(c Ctx, combine func(Ctx) error) error {
	return combine(c)
}

func passesFuncValueArg(c Ctx, scope *Machine, data []byte) error {
	if err := apply(c, syncHelper); err != nil {
		return err
	}
	return c.Send(1, 5, []byte("f"))
}

type node struct{}

func (node) step(c Ctx) error { return c.Sync(nil, "node-step") }

func passesMethodValueArg(c Ctx, scope *Machine, data []byte) error {
	var n node
	if err := apply(c, n.step); err != nil {
		return err
	}
	return c.Send(1, 6, []byte("m"))
}

// A pure function value passed the same way adds no synchronizing edge.
func pureStep(c Ctx) error { return nil }

func passesPureFuncValueArg(c Ctx, scope *Machine, data []byte) error {
	if err := apply(c, pureStep); err != nil {
		return err
	}
	return c.Send(1, 7, []byte("n"))
}

// --- the over-approximation is not an any-call approximation: a
// helper with no barrier anywhere stays unmarked, so the send after it
// is the caller-flushes pattern, not a finding.

func pureHelper(c Ctx) error { return c.Send(2, 9, []byte("p")) }

func afterPureHelper(c Ctx) error {
	if err := pureHelper(c); err != nil {
		return err
	}
	return c.Send(1, 4, []byte("q"))
}
