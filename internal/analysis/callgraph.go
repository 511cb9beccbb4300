package analysis

import (
	"go/ast"
	"go/types"
)

// The interprocedural layer: a package-local call graph over declared
// functions and methods, plus a fact fixpoint. Both commgraph and
// pidtaint need one answer cross-function: "does calling fn synchronize
// processors?" — a helper that buries a Sync three calls deep is still
// a superstep boundary at its call site. The graph is package-local by
// design (the loader type-checks one package at a time); calls into
// other packages fall back to the structural isSyncCall test, which
// already recognizes the model's exported vocabulary (Sync, SyncAll,
// Barrier, the collectives).

// callGraph indexes a package's function declarations and the
// synchronizes-transitively fact.
type callGraph struct {
	info *types.Info
	// decls maps each declared function or method to its body.
	decls map[*types.Func]*ast.FuncDecl
	// syncs holds the fixpoint: fn contains a synchronizing call,
	// directly or through any chain of package-local callees.
	syncs map[*types.Func]bool
}

// sharedCallGraph returns the package's call graph, building it once
// and caching it on the Package when the driver supplied one; standalone passes in tests fall back to a private build. The
// graph depends only on the package's syntax and types, never on the
// requesting analyzer, so sharing is safe.
func sharedCallGraph(pass *Pass) *callGraph {
	if pass.pkg == nil {
		return buildCallGraph(pass)
	}
	if pass.pkg.cg == nil {
		pass.pkg.cg = buildCallGraph(pass)
	}
	return pass.pkg.cg
}

// buildCallGraph indexes the pass's files and runs the fixpoint.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		info:  pass.TypesInfo,
		decls: make(map[*types.Func]*ast.FuncDecl),
		syncs: make(map[*types.Func]bool),
	}
	// inits maps each package-level variable to its initializer.
	inits := make(map[*types.Var]ast.Expr)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok && d.Body != nil {
					g.decls[obj] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
						for i, name := range vs.Names {
							if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
								inits[v] = vs.Values[i]
							}
						}
					}
				}
			}
		}
	}

	// Seed with direct synchronizers, then propagate caller-ward until
	// stable: a function synchronizes if any call in its body does.
	//
	// Besides direct calls, a value-position reference to a function — a
	// method value (f := c.Sync), a function value passed around or
	// called through a variable — is treated as a call edge at the point
	// the value is taken. That over-approximates (taking the value is
	// not calling it) but never under-approximates within the package:
	// the synchronizes fact must be conservative, since a missed
	// boundary turns into a false "unmatched send" and a false clean
	// bill on a desync. Reading a package-level variable takes the
	// values its initializer took, function literals' bodies included:
	// a table of calls (collective.RowCalls) synchronizes its readers.
	edges := make(map[*types.Func][]*types.Func) // callee -> callers
	for obj, fd := range g.decls {
		direct := false
		read := make(map[*types.Var]bool)
		// A direct call's Fun is visited as a value position too; the
		// duplicate edge it adds changes no fact.
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isSyncCall(pass.TypesInfo, x) {
					direct = true
				}
				if callee := calleeFunc(pass.TypesInfo, x); callee != nil {
					if _, local := g.decls[callee]; local {
						edges[callee] = append(edges[callee], obj)
					}
				}
			case *ast.Ident:
				if fn, ok := pass.TypesInfo.Uses[x].(*types.Func); ok {
					if _, local := g.decls[fn]; local {
						edges[fn] = append(edges[fn], obj)
					}
					if fn.Name() == "SyncAll" {
						direct = true
					}
				}
				if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && inits[v] != nil && !read[v] {
					read[v] = true
					ast.Inspect(inits[v], visit)
				}
			case *ast.SelectorExpr:
				sel, ok := pass.TypesInfo.Selections[x]
				if !ok || sel.Kind() != types.MethodVal {
					return true
				}
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return true
				}
				if _, local := g.decls[fn]; local {
					edges[fn] = append(edges[fn], obj)
				}
				if (fn.Name() == "Sync" || fn.Name() == "Barrier") && isCtxType(pass.TypesInfo.TypeOf(x.X)) {
					direct = true
				}
			}
			return true
		}
		walkBody(fd.Body, visit)
		if direct {
			g.syncs[obj] = true
		}
	}
	work := make([]*types.Func, 0, len(g.syncs))
	for fn := range g.syncs {
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range edges[fn] {
			if !g.syncs[caller] {
				g.syncs[caller] = true
				work = append(work, caller)
			}
		}
	}
	return g
}

// callSynchronizes reports whether the call is a superstep boundary:
// a structural sync (Sync/SyncAll/Barrier/collective) or a call to a
// package-local function that synchronizes transitively.
func (g *callGraph) callSynchronizes(call *ast.CallExpr) bool {
	if isSyncCall(g.info, call) {
		return true
	}
	fn := calleeFunc(g.info, call)
	return fn != nil && g.syncs[fn]
}
