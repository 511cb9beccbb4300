package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CommGraph builds the per-superstep communication topology of each
// SPMD function — which sends, receives and collectives fall between
// which synchronizing calls — and flags shapes that are static deadlock
// candidates:
//
//   - an unmatched send: a Send after the function's last superstep
//     boundary, in a function that manages its own supersteps. The
//     message is queued but never flushed, so the receiver's next
//     barrier waits for data that cannot arrive.
//   - a receive no superstep has delivered: Moves() read before the
//     first synchronizing call of a program body — the delivery window
//     opens only after a barrier.
//   - a collective or Sync whose scope argument is processor-divergent:
//     different processors would sync on different scopes, the
//     scoped-barrier flavor of desync. Ancestor-of-self scopes
//     (enclosingScope and friends) are convergent per construction —
//     every member of the returned scope computes the same scope — and
//     are not reported.
//
// Sends in functions with no superstep boundary at all are the helper
// pattern (queue now, caller flushes) and are not reported.
//
// In program entry bodies it also flags the one cost mistake visible
// without a machine: a hand-rolled flat fan-out, where a pid-guarded
// root sends to every processor in a single superstep.
var CommGraph = &Analyzer{
	Name: "commgraph",
	Doc:  "flag unmatched sends, receives before any delivery, divergent-scope collectives, and flat fan-outs in program bodies",
	Run:  runCommGraph,
}

// scopeAncestorNames are helpers returning an ancestor scope of the
// calling processor's leaf: divergent in the taint sense (they depend
// on Self) but convergent per scope membership — every leaf under the
// returned scope computes the same scope, so barriers on it agree.
var scopeAncestorNames = map[string]bool{
	"enclosingScope": true, "ScopeAt": true, "scopeAt": true, "Ancestor": true,
}

func runCommGraph(pass *Pass) error {
	entries := programEntryBodies(pass)
	g := sharedCallGraph(pass)
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkCommTopology(pass, g, body, entries[body])
			if entries[body] {
				reportFlatFanout(pass, body)
			}
		})
	}
	return nil
}

// programEntryBodies finds function literals handed directly to an
// engine entry point (Run, RunVirtual, RunSchedules, ...): bodies known
// to execute from superstep zero, where a Moves() read before the first
// Sync cannot have been delivered anything.
func programEntryBodies(pass *Pass) map[*ast.BlockStmt]bool {
	entries := make(map[*ast.BlockStmt]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch fn.Name() {
			case "Run", "RunVirtual", "RunVirtualChaos", "RunSchedules", "RunConcurrent":
			default:
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					entries[lit.Body] = true
				}
			}
			return true
		})
	}
	return entries
}

// segment is one superstep of a function body: the sends queued before
// its closing synchronizing call.
type segment struct {
	// sends are the positions of the Ctx.Send calls.
	sends []token.Pos
	// sync is the closing call; nil for a trailing segment with no
	// barrier after it.
	sync *ast.CallExpr
}

// bodyComm is the communication of one function body in source order.
type bodyComm struct {
	segs []segment
	// moves are the Moves() reads.
	moves []token.Pos
	// loops are the for/range statements that contain a synchronizing
	// call.
	loops [][2]token.Pos
}

// synced reports whether the body has a superstep boundary of its own.
func (bc *bodyComm) synced() bool { return len(bc.segs) > 0 && bc.segs[0].sync != nil }

// walkComm splits body into superstep segments at its synchronizing
// calls (direct, or through package-local helpers per the call graph).
// Sends after the last boundary form a trailing segment; a body with no
// sends and no boundary has none.
func walkComm(pass *Pass, g *callGraph, body *ast.BlockStmt) bodyComm {
	var bc bodyComm
	var cur segment
	var syncs []token.Pos
	walkBody(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case g.callSynchronizes(call):
			cur.sync = call
			bc.segs = append(bc.segs, cur)
			cur = segment{}
			syncs = append(syncs, call.Pos())
		case isCtxMethod(pass, call, "Send"):
			cur.sends = append(cur.sends, call.Pos())
		case isCtxMethod(pass, call, "Moves"):
			bc.moves = append(bc.moves, call.Pos())
		}
		return true
	})
	if len(cur.sends) > 0 {
		bc.segs = append(bc.segs, cur)
	}
	bc.loops = syncLoopRanges(body, syncs)
	return bc
}

func checkCommTopology(pass *Pass, g *callGraph, body *ast.BlockStmt, isEntry bool) {
	bc := walkComm(pass, g, body)
	if !bc.synced() {
		return // helper pattern: the caller owns the superstep boundaries
	}
	tainted := collectPidTaint(pass, body)
	convergent := collectConvergentScopes(pass, body)
	for _, s := range bc.segs {
		if s.sync != nil {
			checkScopeDivergence(pass, s.sync, tainted, convergent)
			continue
		}
		for _, pos := range s.sends {
			if !insideAny(bc.loops, pos) {
				pass.Reportf(pos,
					"unmatched send: no Sync follows, so the message is queued but never delivered (static deadlock candidate)")
			}
		}
	}
	if !isEntry {
		return
	}
	firstSync := bc.segs[0].sync.Pos()
	for _, pos := range bc.moves {
		if pos < firstSync && !insideAny(bc.loops, pos) {
			pass.Reportf(pos,
				"Moves() read before the first Sync: no superstep has delivered anything yet")
		}
	}
}

// isCtxMethod reports whether call is the named method on an HBSPlib
// context.
func isCtxMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	rt := receiverType(pass.TypesInfo, call)
	return rt != nil && isCtxType(rt)
}

// syncLoopRanges returns the source ranges of for/range statements that
// contain a synchronizing call: a send (or receive) inside such a loop
// meets a barrier on the next iteration even when it sits after the
// loop's sync lexically.
func syncLoopRanges(body *ast.BlockStmt, syncs []token.Pos) [][2]token.Pos {
	var out [][2]token.Pos
	add := func(pos, end token.Pos) {
		for _, s := range syncs {
			if s > pos && s < end {
				out = append(out, [2]token.Pos{pos, end})
				return
			}
		}
	}
	walkBody(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			add(st.Pos(), st.End())
		case *ast.RangeStmt:
			add(st.Pos(), st.End())
		}
		return true
	})
	return out
}

func insideAny(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if pos > r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// collectConvergentScopes marks locals bound to a convergent scope
// expression, so `scope := enclosingScope(t, c.Self(), lvl)` followed by
// `c.Sync(scope, ...)` is recognized through the intermediate variable.
func collectConvergentScopes(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	conv := make(map[types.Object]bool)
	walkBody(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			if !scopeConvergentExpr(pass, st.Rhs[i], conv) {
				continue
			}
			if obj := identObj(pass.TypesInfo, lhs); obj != nil {
				conv[obj] = true
			}
		}
		return true
	})
	return conv
}

// scopeConvergentExpr reports whether e is a scope expression that is
// divergent in the taint sense but convergent per scope membership:
// every processor belonging to the resulting scope computes that same
// scope, so a barrier on it agrees. That covers ancestor-of-self
// helpers (each member of the returned subtree names the same subtree)
// and the bare c.Self() singleton scope.
func scopeConvergentExpr(pass *Pass, e ast.Expr, conv map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(pass.TypesInfo, x)
		return obj != nil && conv[obj]
	case *ast.CallExpr:
		fn := calleeFunc(pass.TypesInfo, x)
		if fn == nil {
			return false
		}
		if scopeAncestorNames[fn.Name()] {
			return true
		}
		if fn.Name() == "Self" {
			rt := receiverType(pass.TypesInfo, x)
			return rt != nil && isCtxType(rt)
		}
	}
	return false
}

// checkScopeDivergence flags a synchronizing call whose scope argument
// differs per processor: members would wait on different barriers. The
// scope expression is the first argument of a Ctx.Sync method call, or
// the Machine argument of a collective.
func checkScopeDivergence(pass *Pass, call *ast.CallExpr, tainted, convergent map[types.Object]bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var scope ast.Expr
	switch {
	case fn.Name() == "Sync" && len(call.Args) >= 1:
		if rt := receiverType(pass.TypesInfo, call); rt != nil && isCtxType(rt) {
			scope = call.Args[0]
		}
	case collectiveNames[fn.Name()] && len(call.Args) >= 2 &&
		isCtxType(pass.TypesInfo.TypeOf(call.Args[0])):
		if typeNameOf(pass.TypesInfo.TypeOf(call.Args[1])) == "Machine" {
			scope = call.Args[1]
		}
	}
	if scope == nil {
		return
	}
	if exprDivergent(pass, scope, tainted) && !scopeConvergentExpr(pass, scope, convergent) {
		pass.Reportf(scope.Pos(),
			"scope argument is processor-divergent: members would sync on different scopes (static deadlock candidate)")
	}
}

// reportFlatFanout reports a hand-rolled flat fan-out in a program entry
// body: a Send inside a loop over all processors, under a pid-equality
// guard. That shape costs the root g·n·(p−1) on any tree and ignores the
// hierarchy; the collective library's broadcast and scatter variants
// exist to replace it. Only entry bodies are judged, because a flat
// collective's own implementation legitimately has this shape.
func reportFlatFanout(pass *Pass, body *ast.BlockStmt) {
	// Walk with an explicit ancestor stack so a Send can see its
	// enclosing loops and pid guards.
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok && len(stack) > 0 {
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCtxMethod(pass, call, "Send") {
			return true
		}
		inAllProcsLoop, underPidGuard := false, false
		for _, anc := range stack[:len(stack)-1] {
			switch a := anc.(type) {
			case *ast.ForStmt:
				if a.Cond != nil && mentionsNProcs(a.Cond) {
					inAllProcsLoop = true
				}
			case *ast.RangeStmt:
				if mentionsNProcs(a.X) {
					inAllProcsLoop = true
				}
			case *ast.IfStmt:
				if mentionsPidEquality(a.Cond) {
					underPidGuard = true
				}
			}
		}
		if inAllProcsLoop && underPidGuard {
			pass.Reportf(call.Pos(),
				"flat fan-out: one pid-guarded root sends to every processor in a single superstep (cost g·n·(p−1) at the root); use a broadcast or scatter collective")
		}
		return true
	}
	ast.Inspect(body, visit)
}

func mentionsNProcs(e ast.Expr) bool {
	return strings.Contains(types.ExprString(e), "NProcs()")
}

func mentionsPidEquality(e ast.Expr) bool {
	s := types.ExprString(e)
	return strings.Contains(s, "Pid()") && strings.Contains(s, "==")
}
