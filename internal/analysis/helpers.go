package analysis

import (
	"go/ast"
	"go/types"
)

// The analyzers key on the HBSP^k vocabulary structurally — method sets
// and type names — rather than on hard-coded import paths, so they work
// unchanged on the real packages, on the public hbspk facade, and on the
// self-contained fixtures under testdata.

// isCtxType reports whether t is an HBSPlib processor context: a type
// whose method set has both Pid() int and a Sync method. This matches
// hbsp.Ctx, the hbspk.Ctx alias, and the engines' concrete vctx/cctx.
func isCtxType(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if ptr := types.NewPointer(t); ms.Len() == 0 {
		ms = types.NewMethodSet(ptr)
	}
	var hasPid, hasSync bool
	for i := 0; i < ms.Len(); i++ {
		f, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig := f.Type().(*types.Signature)
		switch f.Name() {
		case "Pid":
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && isBasic(sig.Results().At(0).Type(), types.Int) {
				hasPid = true
			}
		case "Sync":
			hasSync = true
		}
	}
	return hasPid && hasSync
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeNameOf returns the bare name of t's named type ("Buffer",
// "System"), or "".
func typeNameOf(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// calleeFunc resolves a call to its *types.Func (method or function),
// following selector and plain identifiers; nil for indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call: pkg.Fn.
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// receiverType returns the type of a method call's receiver expression,
// or nil for non-method calls.
func receiverType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return info.TypeOf(sel.X)
	}
	return nil
}

// returnsError reports whether the call's last result is error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// collectiveNames are the exported entry points that synchronize
// internally and take the Ctx first: the collectives of package
// collective, their planner-dispatched forms, the applications of
// package apps, and the hbspk facade's re-exports of all three.
// TestSyncVocabularyComplete fails when one is missing.
var collectiveNames = map[string]bool{
	"Gather": true, "GatherHier": true,
	"BcastOnePhase": true, "BcastTwoPhase": true, "BcastHier": true, "BcastBinomial": true,
	"Scatter": true, "ScatterHier": true,
	"AllGather": true, "AllGatherHier": true,
	"Reduce": true, "ReduceHier": true, "AllReduce": true, "ReduceScatter": true,
	"Scan": true, "ScanHier": true,
	"TotalExchange": true, "TotalExchangeHier": true,
	"PlannedBcast": true, "PlannedGather": true, "PlannedScatter": true,
	"PlannedAllGather": true, "PlannedReduce": true, "PlannedAllReduce": true,
	"PlannedScan": true, "PlannedTotalExchange": true,
	"MatVec": true, "MatMul": true, "Histogram": true,
	"CG": true, "Jacobi": true, "SpMV": true,
}

// ftMethodNames are the synchronizing methods of *collective.FT, which
// holds its Ctx instead of taking it.
var ftMethodNames = map[string]bool{
	"Gather": true, "Bcast": true, "Reduce": true, "AllReduce": true,
}

// isSyncCall reports whether the call synchronizes processors: a Sync
// method on a Ctx, a SyncAll helper, a pvm barrier, a collective or an
// FT method.
func isSyncCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if rt := receiverType(info, call); rt != nil {
		switch typeNameOf(rt) {
		case "Task":
			return name == "Barrier"
		case "FT":
			return ftMethodNames[name]
		}
		return name == "Sync" && isCtxType(rt)
	}
	return name == "SyncAll" || isCollectiveCall(info, call, name)
}

// isCollectiveCall reports whether the call is to a function of the
// collective vocabulary handed a Ctx.
func isCollectiveCall(info *types.Info, call *ast.CallExpr, name string) bool {
	return collectiveNames[name] && len(call.Args) > 0 && isCtxType(info.TypeOf(call.Args[0]))
}

// funcBodies yields every function or method body in the file together
// with a printable name.
func funcBodies(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Name.Name, fn.Body)
			}
		case *ast.FuncLit:
			if fn.Body != nil {
				visit("func literal", fn.Body)
			}
		}
		return true
	})
}

// walkBody walks one function body without descending into nested
// function literals (funcBodies visits those as their own units).
func walkBody(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// identObj resolves an identifier expression to its object, unwrapping
// parens; nil otherwise.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
