package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncFlow tracks delivered-buffer lifetimes across superstep
// boundaries, interprocedurally. The runtime's rule (hbsp.Ctx.Moves) is
// that a payload delivered at Sync n stays valid through Sync n+1 and is
// recycled when Sync n+2 succeeds. The analyzer is stricter on purpose:
// a payload obtained from Moves() in superstep λ is good only until the
// next synchronizing call, since a call into a helper or a collective
// may sync more than once. SyncFlow taints locals that alias a delivered
// buffer (the Moves slice, a Message field, a sub-slice — anything
// sharing the backing array; function results are presumed fresh
// copies) and reports
//
//   - a read of a tainted local after a later superstep boundary in the
//     same function, where "boundary" includes calls to package-local
//     helpers that synchronize transitively (the call graph's fixpoint
//     fact), and
//   - a tainted argument handed to a package-local helper that itself
//     crosses a boundary before reading that parameter — the stale read
//     happens inside the callee, so it is reported at the hand-off.
//
// Holding a buffer across exactly one barrier on purpose (the two-phase
// broadcast keeps its piece for reassembly) is what the runtime's rule
// allows; such audited cases carry `//hbspk:ignore syncflow`.
var SyncFlow = &Analyzer{
	Name: "syncflow",
	Doc:  "flag delivered buffers read across superstep boundaries, through helper calls",
	Run:  runSyncFlow,
}

func runSyncFlow(pass *Pass) error {
	g := sharedCallGraph(pass)
	var facts map[*types.Func]map[int]bool
	if pass.pkg != nil {
		if pass.pkg.staleParams == nil {
			pass.pkg.staleParams = staleParamFacts(pass, g)
		}
		facts = pass.pkg.staleParams
	} else {
		facts = staleParamFacts(pass, g)
	}
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkSyncFlow(pass, g, facts, body)
		})
	}
	return nil
}

// flowState is one forward pass over a body in source order: a
// superstep generation counter bumped at every synchronizing call, and
// the set of Moves-aliasing locals with the generation each was bound
// in. Reads of a local bound in an older generation invoke onStale.
type flowState struct {
	pass *Pass
	g    *callGraph
	gen  int
	bind map[types.Object]int
	// skip marks idents already judged as arguments of a synchronizing
	// call: they are read before the callee's internal barrier, so the
	// walk must not re-judge them at the post-call generation.
	skip    map[*ast.Ident]bool
	onStale func(id *ast.Ident, obj types.Object, boundAt int)
	// onCall, when set, probes each call site before the generation
	// bump the callee may cause.
	onCall func(call *ast.CallExpr)
}

func newFlowState(pass *Pass, g *callGraph) *flowState {
	return &flowState{
		pass: pass,
		g:    g,
		bind: make(map[types.Object]int),
		skip: make(map[*ast.Ident]bool),
	}
}

func (s *flowState) walk(body *ast.BlockStmt) {
	walkBody(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if s.onCall != nil {
				s.onCall(x)
			}
			if s.g.callSynchronizes(x) {
				// The call's arguments are read before the callee's
				// internal barrier: judge them at the pre-bump
				// generation, then advance.
				for _, arg := range x.Args {
					ast.Inspect(arg, func(n ast.Node) bool {
						if _, ok := n.(*ast.FuncLit); ok {
							return false
						}
						if id, ok := n.(*ast.Ident); ok {
							s.use(id)
							s.skip[id] = true
						}
						return true
					})
				}
				s.gen++
			}
		case *ast.AssignStmt:
			s.assign(x)
		case *ast.ValueSpec:
			for i, name := range x.Names {
				var rhs ast.Expr
				if len(x.Values) == len(x.Names) {
					rhs = x.Values[i]
				} else if len(x.Values) == 1 {
					rhs = x.Values[0]
				}
				obj := s.pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				if rhs != nil && s.aliased(rhs) {
					s.bind[obj] = s.gen
				}
			}
		case *ast.RangeStmt:
			if s.aliased(x.X) {
				for _, lhs := range []ast.Expr{x.Key, x.Value} {
					if lhs == nil {
						continue
					}
					if obj := identObj(s.pass.TypesInfo, lhs); obj != nil {
						s.bind[obj] = s.gen
					}
				}
			}
		case *ast.Ident:
			s.use(x)
		}
		return true
	})
}

// assign rebinds each identifier target: an aliasing RHS taints it at
// the current generation; any other RHS (a fresh allocation, a copy via
// append/encode/decode) clears it. Runs before the statement's idents
// are visited, so the LHS write itself is never mistaken for a read.
func (s *flowState) assign(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		}
		obj := identObj(s.pass.TypesInfo, lhs)
		if obj == nil {
			continue
		}
		if rhs != nil && s.aliased(rhs) {
			s.bind[obj] = s.gen
		} else if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
			delete(s.bind, obj)
		}
	}
}

func (s *flowState) use(id *ast.Ident) {
	if s.skip[id] {
		return
	}
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil || s.onStale == nil {
		return
	}
	if boundAt, ok := s.bind[obj]; ok && boundAt < s.gen {
		s.onStale(id, obj, boundAt)
	}
}

// aliased reports whether e shares backing storage with a delivered
// buffer: the Moves() slice itself, an element, field, sub-slice,
// dereference or address of one, or a local already tainted. Function
// calls are presumed to return fresh storage (append-copies, unpackers,
// digests), which keeps the legitimate decode-then-fold idiom clean.
func (s *flowState) aliased(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(s.pass.TypesInfo, x)
		if obj == nil {
			return false
		}
		_, ok := s.bind[obj]
		return ok
	case *ast.CallExpr:
		return isCtxMethod(s.pass, x, "Moves")
	case *ast.IndexExpr:
		return s.aliased(x.X)
	case *ast.SliceExpr:
		return s.aliased(x.X)
	case *ast.SelectorExpr:
		return s.aliased(x.X)
	case *ast.StarExpr:
		return s.aliased(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && s.aliased(x.X)
	}
	return false
}

// staleParamFacts computes, for every package-local function that
// synchronizes, which buffer-like parameters it reads after its own
// first boundary. A caller passing a delivered buffer in such a
// position ships bytes that expire mid-callee.
func staleParamFacts(pass *Pass, g *callGraph) map[*types.Func]map[int]bool {
	facts := make(map[*types.Func]map[int]bool)
	for fn, fd := range g.decls {
		if !g.syncs[fn] {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		params := make(map[types.Object]int)
		st := newFlowState(pass, g)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if aliasableParam(p.Type()) {
				params[p] = i
				st.bind[p] = 0
			}
		}
		if len(params) == 0 {
			continue
		}
		var hit map[int]bool
		st.onStale = func(id *ast.Ident, obj types.Object, boundAt int) {
			if idx, ok := params[obj]; ok && boundAt == 0 {
				if hit == nil {
					hit = make(map[int]bool)
				}
				hit[idx] = true
			}
		}
		st.walk(fd.Body)
		if hit != nil {
			facts[fn] = hit
		}
	}
	return facts
}

// aliasableParam reports whether a parameter of this type can alias a
// delivered buffer (reference semantics).
func aliasableParam(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

func checkSyncFlow(pass *Pass, g *callGraph, facts map[*types.Func]map[int]bool, body *ast.BlockStmt) {
	st := newFlowState(pass, g)
	st.onStale = func(id *ast.Ident, obj types.Object, boundAt int) {
		pass.Reportf(id.Pos(),
			"delivered buffer %q received in superstep generation %d read after a later superstep boundary: payloads are only valid until the next Sync", id.Name, boundAt)
	}
	// Cross-function early reads: a tainted argument in a parameter
	// position the callee reads after its own boundary is reported at
	// the hand-off, where the fix belongs (copy before passing).
	st.onCall = func(call *ast.CallExpr) {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		for idx := range facts[fn] {
			if idx < len(call.Args) && st.aliased(call.Args[idx]) {
				pass.Reportf(call.Args[idx].Pos(),
					"delivered buffer passed to %s, which synchronizes before reading it: the payload expires at that boundary", fn.Name())
			}
		}
	}
	st.walk(body)
}
