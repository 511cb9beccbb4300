package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncFlow checks the lifetime rule of delivered buffers (hbsp.Ctx.Moves)
// interprocedurally: a payload delivered at Sync n stays valid through
// Sync n+1 and is recycled when Sync n+2 succeeds. SyncFlow taints locals
// that alias a delivered buffer (the Moves slice, a Message field, a
// sub-slice — anything sharing the backing array; function results are
// presumed fresh copies) and counts the superstep boundaries crossed
// since each was bound. A direct Sync or SyncAll counts one; any other
// synchronizing call — a package-local helper that synchronizes
// transitively (the call graph's fixpoint fact), a collective, an FT
// method — counts two, since it may sync more than once. It reports
//
//   - a read of a tainted local at a count of two or more, and
//   - a tainted argument handed to a package-local helper that reads that
//     parameter after k boundaries of its own, when the caller's count
//     plus k reaches two — the stale read happens inside the callee, so it
//     is reported at the hand-off.
var SyncFlow = &Analyzer{
	Name: "syncflow",
	Doc:  "flag delivered buffers read past the Sync after the one that delivered them, through helper calls",
	Run:  runSyncFlow,
}

// expiry is how many boundaries after its binding a delivered buffer is
// recycled.
const expiry = 2

const lifetimeRule = "a payload is valid only through the Sync after the one that delivered it"

func runSyncFlow(pass *Pass) error {
	g := sharedCallGraph(pass)
	var facts map[*types.Func]map[int]int
	if pass.pkg != nil {
		if pass.pkg.lateParams == nil {
			pass.pkg.lateParams = lateParamFacts(pass, g)
		}
		facts = pass.pkg.lateParams
	} else {
		facts = lateParamFacts(pass, g)
	}
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkSyncFlow(pass, g, facts, body)
		})
	}
	return nil
}

// flowState is one forward pass over a body in source order: the count
// of superstep boundaries crossed so far, and the set of Moves-aliasing
// locals with the count each was bound at. Every read of a bound local
// invokes onRead with its age, the boundaries crossed since the binding.
type flowState struct {
	pass    *Pass
	g       *callGraph
	crossed int
	bind    map[types.Object]int
	// skip marks idents already judged as arguments of a synchronizing
	// call: they are read before the callee's internal barrier, so the
	// walk must not re-judge them at the post-call count.
	skip   map[*ast.Ident]bool
	onRead func(id *ast.Ident, obj types.Object, age int)
	// onCall, when set, probes each call site before the boundaries the
	// callee may cross are counted.
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
			if k := s.boundaries(x); k > 0 {
				// The call's arguments are read before the callee's
				// internal barrier: judge them at the count before the
				// call, then advance.
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
				s.crossed += k
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
				if at, ok := s.boundAt(rhs); ok && obj != nil {
					s.bind[obj] = at
				}
			}
		case *ast.RangeStmt:
			if at, ok := s.boundAt(x.X); ok {
				for _, lhs := range []ast.Expr{x.Key, x.Value} {
					if lhs == nil {
						continue
					}
					if obj := identObj(s.pass.TypesInfo, lhs); obj != nil {
						s.bind[obj] = at
					}
				}
			}
		case *ast.Ident:
			s.use(x)
		}
		return true
	})
}

// boundaries is how many superstep boundaries a call crosses: one for a
// direct Sync or SyncAll, two for any other synchronizing call, none for
// the rest.
func (s *flowState) boundaries(call *ast.CallExpr) int {
	if !s.g.callSynchronizes(call) {
		return 0
	}
	switch fn := calleeFunc(s.g.info, call); {
	case fn.Name() == "SyncAll", fn.Name() == "Sync" && isCtxType(receiverType(s.g.info, call)):
		return 1
	}
	return expiry
}

// assign rebinds each identifier target: an aliasing RHS taints it with
// the binding count of the storage it aliases; any other RHS (a fresh
// allocation, a copy via append/encode/decode) clears it. Runs before
// the statement's idents are visited, so the LHS write itself is never
// mistaken for a read.
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
		if at, ok := s.boundAt(rhs); ok {
			s.bind[obj] = at
		} else if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
			delete(s.bind, obj)
		}
	}
}

func (s *flowState) use(id *ast.Ident) {
	if s.skip[id] || s.onRead == nil {
		return
	}
	obj := s.pass.TypesInfo.Uses[id]
	if at, ok := s.bind[obj]; ok {
		s.onRead(id, obj, s.crossed-at)
	}
}

// boundAt reports whether e shares backing storage with a delivered
// buffer — the Moves() slice itself, an element, field, sub-slice,
// dereference or address of one, or a local already tainted — and the
// count at which that buffer was bound. Function calls are presumed to
// return fresh storage (append-copies, unpackers, digests), which keeps
// the legitimate decode-then-fold idiom clean.
func (s *flowState) boundAt(e ast.Expr) (int, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(s.pass.TypesInfo, x)
		if obj == nil {
			return 0, false
		}
		at, ok := s.bind[obj]
		return at, ok
	case *ast.CallExpr:
		return s.crossed, isCtxMethod(s.pass, x, "Moves")
	case *ast.IndexExpr:
		return s.boundAt(x.X)
	case *ast.SliceExpr:
		return s.boundAt(x.X)
	case *ast.SelectorExpr:
		return s.boundAt(x.X)
	case *ast.StarExpr:
		return s.boundAt(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.boundAt(x.X)
		}
	}
	return 0, false
}

// lateParamFacts computes, for every package-local function that
// synchronizes, the buffer-like parameters it reads after one or more
// of its own boundaries, each with the most boundaries it crosses before
// a read. A caller whose delivered buffer is that close to expiry hands
// over bytes that expire mid-callee.
func lateParamFacts(pass *Pass, g *callGraph) map[*types.Func]map[int]int {
	facts := make(map[*types.Func]map[int]int)
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
		late := make(map[int]int)
		st.onRead = func(id *ast.Ident, obj types.Object, age int) {
			if idx, ok := params[obj]; ok && age > late[idx] {
				late[idx] = age
			}
		}
		st.walk(fd.Body)
		if len(late) > 0 {
			facts[fn] = late
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

func checkSyncFlow(pass *Pass, g *callGraph, facts map[*types.Func]map[int]int, body *ast.BlockStmt) {
	st := newFlowState(pass, g)
	st.onRead = func(id *ast.Ident, obj types.Object, age int) {
		if age >= expiry {
			pass.Reportf(id.Pos(), "delivered buffer %q read %d superstep boundaries after it was bound: %s", id.Name, age, lifetimeRule)
		}
	}
	// Cross-function late reads: a tainted argument in a parameter
	// position the callee reads after its own boundaries is reported at
	// the hand-off, where the fix belongs (copy before passing). An
	// argument already stale is reported as a read instead.
	st.onCall = func(call *ast.CallExpr) {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		for idx, k := range facts[fn] {
			if idx >= len(call.Args) {
				continue
			}
			if at, ok := st.boundAt(call.Args[idx]); ok && st.crossed-at < expiry && st.crossed-at+k >= expiry {
				pass.Reportf(call.Args[idx].Pos(), "delivered buffer passed to %s, which reads it %d superstep boundaries after it was bound: %s",
					fn.Name(), st.crossed-at+k, lifetimeRule)
			}
		}
	}
	st.walk(body)
}
