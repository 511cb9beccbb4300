package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PidTaint statically proves collective-call alignment: every processor
// of a scope must reach the same sequence of synchronizing operations
// (Sync, barriers, the collectives and their FT variants), or the
// concurrent engine deadlocks and a wire transport hangs distributed.
//
// The analyzer seeds a taint lattice at processor-identity sources
// (Pid, Self, Moves, the Share enquiry),
// propagates it through assignments and arithmetic, and abstracts each
// function body into its synchronization sequence — a string of sync
// tokens, composed interprocedurally through cached per-function
// summaries over the package-local call graph. At every branch whose
// condition is pid-tainted it compares the arms' sequences (each
// extended with the function's continuation, so an early return that
// skips a later barrier is a mismatch); at every loop whose bound is
// pid-tainted it checks the body synchronizes nothing. Arms that rejoin
// with identical sequences — the audited coordinator-election idiom,
// where `if c.Pid() == root` guards extra sends but equal barriers —
// are aligned and pass.
//
// This is the suite's one alignment rule (§5.1: every processor of a
// scope syncs on it the same number of times): a synchronizing call
// under pid-divergent control is reported at the controlling statement,
// and only when the arms' *sequences* differ — a branch that rejoins
// with equal barriers is not a desync. Deliberately divergent code
// carries `//hbspk:ignore pidtaint` on that statement.
//
// Arms are compared on their sync-token projection: structural markers
// (early-return `$`, break `^`, uniform-alternative grouping) are
// erased first, so arms that reach the same synchronizing operations
// through different local shapes — mirrored error handling, an extra
// validation return before any barrier — compare equal. The projection
// keeps order and multiplicity, so a skipped, reordered or repeated
// barrier still mismatches.
//
// Carve-outs (mirroring commgraph's convergent-local rules): locals
// bound to ancestor-of-self scope expressions (enclosingScope, ScopeAt,
// Ancestor) are divergent in the taint sense but convergent per scope
// membership, and do not make a condition divergent. Error-typed values
// are never divergence sources: `if err != nil { return err }` aborts
// the superstep program, and the engines surface an abort to every
// member of the scope, so the error path is not a silent desync.
// Sequences the analyzer cannot fold (calls through function values it
// cannot resolve) are assumed non-synchronizing, matching the suite's
// structural fallback; audited-unprovable divergence carries
// `//hbspk:ignore pidtaint`.
var PidTaint = &Analyzer{
	Name: "pidtaint",
	Doc:  "prove synchronizing-call alignment across processors under pid-tainted control flow",
	Run:  runPidTaint,
}

func runPidTaint(pass *Pass) error {
	a := &aligner{
		pass:       pass,
		g:          sharedCallGraph(pass),
		inProgress: make(map[*types.Func]bool),
	}
	if pass.pkg != nil {
		if pass.pkg.alignSums == nil {
			pass.pkg.alignSums = make(map[*types.Func]string)
		}
		a.summaries = pass.pkg.alignSums
	} else {
		a.summaries = make(map[*types.Func]string)
	}
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			env := a.newEnv(body, true)
			a.seqStmts(body.List, seqEnd, env)
		})
	}
	return nil
}

// seqEnd terminates every sequence: the function's exit. An early
// return yields it directly, dropping the continuation, which is
// exactly how a processor that returns early skips later barriers.
const seqEnd = "$"

// aligner carries the per-package state of the alignment analysis:
// the call graph and the memoized per-function synchronization
// summaries (cached on the Package across analyzer passes).
type aligner struct {
	pass       *Pass
	g          *callGraph
	summaries  map[*types.Func]string
	inProgress map[*types.Func]bool
}

// alignEnv is the per-body environment: the pid-taint set, the
// convergent-scope carve-outs, locals holding synchronizing function
// values, and whether mismatches are reported (summaries are computed
// silently; each body is judged exactly once, as its own unit).
type alignEnv struct {
	tainted    map[types.Object]bool
	convergent map[types.Object]bool
	syncValued map[types.Object]string
	report     bool
}

func (a *aligner) newEnv(body *ast.BlockStmt, report bool) *alignEnv {
	return &alignEnv{
		tainted:    collectPidTaint(a.pass, body),
		convergent: collectConvergentScopes(a.pass, body),
		syncValued: collectSyncValued(a.pass, a.g, body),
		report:     report,
	}
}

// collectSyncValued marks locals bound to a synchronizing function or
// method value (`barrier := c.Sync`, `f := syncHelper`), so an indirect
// call through the local still contributes a sync token. The token is
// derived from the value's origin, keeping syntactically identical
// bindings comparable across branch arms.
func collectSyncValued(pass *Pass, g *callGraph, body *ast.BlockStmt) map[types.Object]string {
	vals := make(map[types.Object]string)
	walkBody(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			tok := syncValueToken(pass, g, st.Rhs[i])
			if tok == "" {
				continue
			}
			if obj := identObj(pass.TypesInfo, lhs); obj != nil {
				vals[obj] = tok
			}
		}
		return true
	})
	return vals
}

// syncValueToken returns the sync token a value-position expression
// would contribute when later called, or "".
func syncValueToken(pass *Pass, g *callGraph, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[x].(*types.Func); ok && g.syncs[fn] {
			return "call:" + fn.Name()
		}
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo.Selections[x]
		if !ok || sel.Kind() != types.MethodVal {
			return ""
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			return ""
		}
		if (fn.Name() == "Sync" || fn.Name() == "Barrier") && isCtxType(pass.TypesInfo.TypeOf(x.X)) {
			return fn.Name() + "(?)"
		}
		if g.syncs[fn] {
			return "call:" + fn.Name()
		}
	}
	return ""
}

// divergentCond reports whether a branch condition or loop bound is
// pid-divergent after the convergent-scope carve-out: mentions of
// convergent locals and ancestor-of-self scope expressions do not
// count, everything exprDivergent recognizes does.
func (a *aligner) divergentCond(e ast.Expr, env *alignEnv) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		sub, ok := n.(ast.Expr)
		if ok && scopeConvergentExpr(a.pass, sub, env.convergent) {
			return false // convergent subtree: same value on every member
		}
		switch x := n.(type) {
		case *ast.Ident:
			obj := identObj(a.pass.TypesInfo, x)
			if obj == nil || !env.tainted[obj] || env.convergent[obj] {
				return true
			}
			// Error values are taint sinks, not divergence sources: the
			// abort path is visible to the whole scope.
			if isErrorType(obj.Type()) {
				return true
			}
			found = true
		case *ast.CallExpr:
			found = divergentCall(a.pass.TypesInfo, x)
		}
		return true
	})
	return found
}

// summary returns fn's synchronization sequence, memoized; recursion
// bottoms out in an opaque µ-token so mutually recursive helpers stay
// comparable without diverging.
func (a *aligner) summary(fn *types.Func) string {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	fd := a.g.decls[fn]
	if fd == nil {
		return ""
	}
	if a.inProgress[fn] {
		return "µ" + fn.Name()
	}
	a.inProgress[fn] = true
	env := a.newEnv(fd.Body, false)
	s := a.seqStmts(fd.Body.List, seqEnd, env)
	delete(a.inProgress, fn)
	a.summaries[fn] = s
	return s
}

// callToken renders one call's contribution to a sequence: a sync
// token, a spliced local-callee summary, or "" for calls assumed
// non-synchronizing.
func (a *aligner) callToken(call *ast.CallExpr, env *alignEnv) string {
	info := a.pass.TypesInfo
	if isSyncCall(info, call) {
		return syncCallToken(info, call)
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// Indirect call: a local known to hold a synchronizing value
		// contributes its origin token; anything else is assumed
		// non-synchronizing (the suite's structural fallback).
		if obj := identObj(info, call.Fun); obj != nil {
			return env.syncValued[obj]
		}
		return ""
	}
	if _, local := a.g.decls[fn]; local {
		s := a.summary(fn)
		s = strings.TrimSuffix(s, seqEnd)
		// A helper that synchronizes nothing contributes nothing; its
		// internal returns and branches are invisible to the caller's
		// alignment.
		if !hasSyncToken(s) {
			return ""
		}
		return "[" + s + "]"
	}
	return ""
}

// syncCallToken names a structural synchronizing call precisely enough
// that two arms syncing "the same way" compare equal and two arms
// syncing on different scopes or labels do not. Literal label arguments
// are folded in; non-literal labels compare as "?" (assumed uniform).
func syncCallToken(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "sync"
	}
	name := fn.Name()
	switch {
	case name == "Sync" && len(call.Args) >= 2:
		return "Sync(" + types.ExprString(call.Args[0]) + "," + litToken(call.Args[1]) + ")"
	case name == "SyncAll" && len(call.Args) >= 2:
		return "SyncAll(" + litToken(call.Args[1]) + ")"
	case name == "Barrier" && len(call.Args) >= 1:
		return "Barrier(" + litToken(call.Args[0]) + ")"
	case collectiveNames[name] && len(call.Args) >= 2:
		return name + "(" + types.ExprString(call.Args[1]) + ")"
	}
	return name
}

// litToken folds a basic-literal argument into the token; anything
// computed compares as "?", which is assumed uniform across processors.
func litToken(e ast.Expr) string {
	if bl, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		return bl.Value
	}
	return "?"
}

// exprSeq concatenates the call tokens of an expression tree in visit
// order (deterministic, identical across compared arms). Nested
// function literals are separate analysis units and contribute nothing
// here.
func (a *aligner) exprSeq(e ast.Expr, env *alignEnv) string {
	if e == nil {
		return ""
	}
	var sb strings.Builder
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if tok := a.callToken(call, env); tok != "" {
				sb.WriteString(tok)
				sb.WriteString(";")
			}
		}
		return true
	})
	return sb.String()
}

// seqStmts folds a statement list right-to-left onto the continuation,
// so every statement's sequence value is "everything that synchronizes
// from here to the end of the function".
func (a *aligner) seqStmts(stmts []ast.Stmt, cont string, env *alignEnv) string {
	suffix := cont
	for i := len(stmts) - 1; i >= 0; i-- {
		suffix = a.seqStmt(stmts[i], suffix, env)
	}
	return suffix
}

// hasSyncToken reports whether a rendered sequence contains any actual
// synchronizing operation, as opposed to pure structure ($, |, loop
// braces from empty bodies).
func hasSyncToken(s string) bool {
	for _, r := range s {
		if r == '$' || r == '(' || r == ')' || r == '|' || r == '^' {
			continue
		}
		if r == '{' || r == '}' || r == '[' || r == ']' || r == ';' {
			continue
		}
		return true
	}
	return false
}

// syncProjection erases the structural markers from a sequence, leaving
// the ordered sync tokens. Two divergent arms are compared on their
// projections: an early return ahead of no barrier, a uniform branch
// whose arms sync identically, or mirrored error exits are all shapes
// with equal projections, while a skipped, repeated or reordered
// synchronizing operation is not. Token-internal parentheses are erased
// too, identically on both sides, so equality is preserved.
// isErrorAbortBranch reports whether a branch body is nothing but a
// return whose final result is a freshly produced, non-nil error: the
// shape of a validation abort (`if me < 0 { return nil, fmt.Errorf(…) }`)
// as opposed to a silent opt-out (`return nil`), which stays divergent.
func isErrorAbortBranch(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	t := info.TypeOf(last)
	if t == nil || !isErrorType(t) {
		return false
	}
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

func syncProjection(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '$', '^', '|', '(', ')', '[', ']':
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// renderSeq makes a sequence human-readable for diagnostics.
func renderSeq(s string) string {
	s = strings.TrimSuffix(s, seqEnd)
	s = strings.TrimSuffix(s, ";")
	if s == "" {
		return "(no sync)"
	}
	if strings.HasSuffix(s, seqEnd) || strings.Contains(s, seqEnd) {
		s = strings.ReplaceAll(s, seqEnd, "<return>")
	}
	return s
}

func (a *aligner) seqStmt(s ast.Stmt, cont string, env *alignEnv) string {
	switch st := s.(type) {
	case nil:
		return cont
	case *ast.BlockStmt:
		return a.seqStmts(st.List, cont, env)
	case *ast.ExprStmt:
		return a.exprSeq(st.X, env) + cont
	case *ast.AssignStmt:
		var sb strings.Builder
		for _, e := range st.Rhs {
			sb.WriteString(a.exprSeq(e, env))
		}
		return sb.String() + cont
	case *ast.ReturnStmt:
		var sb strings.Builder
		for _, e := range st.Results {
			sb.WriteString(a.exprSeq(e, env))
		}
		return sb.String() + seqEnd
	case *ast.BranchStmt:
		// break/continue/goto: skips the rest of the enclosing block.
		// Loop bodies are sequenced against an empty continuation, so
		// the marker distinguishes "leaves early" from "falls through".
		return "^"
	case *ast.IfStmt:
		initSeq := a.seqStmt(st.Init, "", env)
		condSeq := a.exprSeq(st.Cond, env)
		div := a.divergentCond(st.Cond, env)
		// Membership-guard carve-out: a divergent guard whose only body
		// is `return ..., <fresh error>` aborts the processors it
		// selects rather than desyncing them — the engines surface the
		// abort to the whole scope, same as the err != nil idiom. The
		// abort arm must itself be sync-free: `return Gather(…)` both
		// synchronizes and returns its error, and stays divergent.
		if div && st.Else == nil && isErrorAbortBranch(a.pass.TypesInfo, st.Body) {
			probe := *env
			probe.report = false
			if !hasSyncToken(a.seqStmts(st.Body.List, "", &probe)) {
				div = false
			}
		}
		// Divergent branches embed the continuation: an early return in
		// one arm must be compared against the other arm *plus* every
		// barrier that follows the if. Uniform branches are sequenced
		// locally to keep growth linear.
		armCont := ""
		if div {
			armCont = cont
		}
		thenSeq := a.seqStmts(st.Body.List, armCont, env)
		elseSeq := armCont
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseSeq = a.seqStmts(e.List, armCont, env)
		case *ast.IfStmt:
			elseSeq = a.seqStmt(e, armCont, env)
		}
		if div {
			if syncProjection(thenSeq) != syncProjection(elseSeq) && env.report {
				a.pass.Reportf(st.Cond.Pos(),
					"pid-divergent branches synchronize differently (then: %s / else: %s): processors taking different arms desync",
					renderSeq(thenSeq), renderSeq(elseSeq))
			}
			return initSeq + condSeq + thenSeq
		}
		if thenSeq == elseSeq {
			return initSeq + condSeq + thenSeq + cont
		}
		return initSeq + condSeq + "(" + thenSeq + "|" + elseSeq + ")" + cont
	case *ast.ForStmt:
		initSeq := a.seqStmt(st.Init, "", env)
		condSeq := a.exprSeq(st.Cond, env)
		postSeq := a.seqStmt(st.Post, "", env)
		bodySeq := a.seqStmts(st.Body.List, "", env)
		inner := condSeq + bodySeq + postSeq
		if st.Cond != nil && a.divergentCond(st.Cond, env) && hasSyncToken(inner) && env.report {
			a.pass.Reportf(st.Cond.Pos(),
				"loop bound is pid-divergent and the body synchronizes (%s): processors would sync different numbers of times",
				renderSeq(bodySeq))
		}
		if !hasSyncToken(inner) {
			return initSeq + cont
		}
		return initSeq + "loop{" + inner + "}" + cont
	case *ast.RangeStmt:
		rangeSeq := a.exprSeq(st.X, env)
		bodySeq := a.seqStmts(st.Body.List, "", env)
		if a.divergentCond(st.X, env) && hasSyncToken(bodySeq) && env.report {
			a.pass.Reportf(st.X.Pos(),
				"ranging over a pid-divergent value with a synchronizing body (%s): iteration counts differ per processor",
				renderSeq(bodySeq))
		}
		if !hasSyncToken(bodySeq) {
			return rangeSeq + cont
		}
		return rangeSeq + "loop{" + bodySeq + "}" + cont
	case *ast.SwitchStmt:
		initSeq := a.seqStmt(st.Init, "", env)
		tagSeq := a.exprSeq(st.Tag, env)
		div := st.Tag != nil && a.divergentCond(st.Tag, env)
		hasDefault := false
		var caseExprsDiv bool
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				if a.divergentCond(e, env) {
					caseExprsDiv = true
				}
			}
		}
		div = div || caseExprsDiv
		armCont := ""
		if div {
			armCont = cont
		}
		var arms []string
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			arms = append(arms, a.seqStmts(cc.Body, armCont, env))
		}
		if !hasDefault {
			arms = append(arms, armCont) // no default: fallthrough arm
		}
		if div {
			for i := 1; i < len(arms); i++ {
				if syncProjection(arms[i]) != syncProjection(arms[0]) {
					if env.report {
						pos := st.Pos()
						if st.Tag != nil {
							pos = st.Tag.Pos()
						}
						a.pass.Reportf(pos,
							"pid-divergent switch arms synchronize differently (%s vs %s): processors taking different cases desync",
							renderSeq(arms[0]), renderSeq(arms[i]))
					}
					break
				}
			}
			return initSeq + tagSeq + arms[0]
		}
		allEqual := true
		for i := 1; i < len(arms); i++ {
			if arms[i] != arms[0] {
				allEqual = false
				break
			}
		}
		if allEqual {
			return initSeq + tagSeq + arms[0] + cont
		}
		return initSeq + tagSeq + "(" + strings.Join(arms, "|") + ")" + cont
	case *ast.TypeSwitchStmt:
		var arms []string
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			arms = append(arms, a.seqStmts(cc.Body, "", env))
		}
		uniform := true
		for i := 1; i < len(arms); i++ {
			if arms[i] != arms[0] {
				uniform = false
				break
			}
		}
		if len(arms) == 0 || (uniform && arms[0] == "") {
			return cont
		}
		return "(" + strings.Join(arms, "|") + ")" + cont
	case *ast.SelectStmt:
		var arms []string
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			arms = append(arms, a.seqStmts(cc.Body, "", env))
		}
		any := false
		for _, arm := range arms {
			if hasSyncToken(arm) {
				any = true
			}
		}
		if !any {
			return cont
		}
		return "(" + strings.Join(arms, "|") + ")" + cont
	case *ast.LabeledStmt:
		return a.seqStmt(st.Stmt, cont, env)
	case *ast.DeferStmt:
		if tok := a.callToken(st.Call, env); tok != "" {
			return "defer{" + tok + "}" + cont
		}
		return a.exprSeq(st.Call, env) + cont
	case *ast.GoStmt:
		if tok := a.callToken(st.Call, env); tok != "" {
			return "go{" + tok + "}" + cont
		}
		return a.exprSeq(st.Call, env) + cont
	case *ast.DeclStmt:
		var sb strings.Builder
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sb.WriteString(a.exprSeq(v, env))
					}
				}
			}
		}
		return sb.String() + cont
	case *ast.SendStmt:
		return a.exprSeq(st.Chan, env) + a.exprSeq(st.Value, env) + cont
	case *ast.IncDecStmt:
		return a.exprSeq(st.X, env) + cont
	}
	return cont
}

// divergentFuncNames are package-level enquiry helpers whose results
// differ per processor when handed a Ctx: hbsp.Share.
var divergentFuncNames = map[string]bool{"Share": true}

// collectPidTaint returns the set of local variables derived from
// processor identity, via a forward pass over the body in source order
// (assignments in Go programs flow forward; a fixpoint is not needed for
// the straight-line derivations this analyzer targets).
func collectPidTaint(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	isDivergent := func(e ast.Expr) bool {
		return exprDivergent(pass, e, tainted)
	}
	walkBody(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else if len(st.Rhs) == 1 {
					rhs = st.Rhs[0]
				}
				if rhs == nil || !isDivergent(rhs) {
					continue
				}
				if obj := identObj(pass.TypesInfo, lhs); obj != nil {
					tainted[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				var rhs ast.Expr
				if len(st.Values) == len(st.Names) {
					rhs = st.Values[i]
				} else if len(st.Values) == 1 {
					rhs = st.Values[0]
				}
				if rhs == nil || !isDivergent(rhs) {
					continue
				}
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})
	return tainted
}

// exprDivergent reports whether e's value depends on the processor's
// identity: it mentions a Pid/Self enquiry on a Ctx, a divergent helper
// call, Moves() (delivered messages differ per processor), or a tainted
// local.
func exprDivergent(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj := identObj(pass.TypesInfo, x); obj != nil && tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			found = divergentCall(pass.TypesInfo, x)
		}
		return true
	})
	return found
}

// divergentCall reports whether the call is itself a processor-identity
// source: a Pid/Self/Moves enquiry on a Ctx, or a divergent helper
// handed one.
func divergentCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if rt := receiverType(info, call); rt != nil && isCtxType(rt) {
		switch fn.Name() {
		case "Pid", "Self", "Moves":
			return true
		}
		return false
	}
	return divergentFuncNames[fn.Name()] && len(call.Args) > 0 && isCtxType(info.TypeOf(call.Args[0]))
}
