package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// UncheckedRun flags dropped errors from the HBSP^k run-time surface:
// engine Run and Virtual.RunSchedules, the facade runners, Ctx
// Sync/Send, SyncAll, the pvm Task sends, Flush and barriers,
// Spawn-collection via System.Wait, and every collective — planner-
// dispatched and fault-tolerant forms included. A swallowed error
// from any of these turns a detected desync or delivery failure into a
// silently wrong answer, so unlike a general errcheck this one is
// always-on for the model's own calls. Flagged are outright drops (the
// call as a bare statement, go, or defer) and a blank error beside a
// kept result (`parts, _ := AllGather(...)`), a result the failed call
// may never have filled. `_ = call` and `_, _ = call` are deliberate.
var UncheckedRun = &Analyzer{
	Name: "uncheckedrun",
	Doc:  "flag dropped errors from Run/Sync/Send/collective calls",
	Run:  runUncheckedRun,
}

func runUncheckedRun(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			walkBody(body, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, _ = st.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call = st.Call
				case *ast.DeferStmt:
					call = st.Call
				case *ast.AssignStmt:
					call = blankedError(st)
				}
				if call == nil || !isUncheckedTarget(pass, call) {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				pass.Reportf(call.Pos(), "error result of %s is dropped: a desync or delivery failure would be silently ignored", fn.Name())
				return true
			})
		})
	}
	return nil
}

// blankedError returns the call of `x, _ := call()`: the last result,
// the error, blanked while another one is kept.
func blankedError(st *ast.AssignStmt) *ast.CallExpr {
	n := len(st.Lhs)
	if len(st.Rhs) != 1 || n < 2 || !isBlank(st.Lhs[n-1]) ||
		!slices.ContainsFunc(st.Lhs, func(e ast.Expr) bool { return !isBlank(e) }) {
		return nil
	}
	call, _ := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	return call
}

func isBlank(e ast.Expr) bool { return types.ExprString(e) == "_" }

// taskMethodNames are the pvm Task calls the engine makes whose error
// reports a lost delivery or a failed barrier.
var taskMethodNames = map[string]bool{
	"Send": true, "SendBatch": true, "SendBatches": true, "Flush": true,
	"Barrier": true, "BarrierExchange": true, "Arrive": true,
}

// isUncheckedTarget reports whether the call is an error-returning call
// of the model's surface.
func isUncheckedTarget(pass *Pass, call *ast.CallExpr) bool {
	if !returnsError(pass.TypesInfo, call) {
		return false
	}
	info := pass.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if rt := receiverType(info, call); rt != nil {
		switch {
		case isCtxType(rt):
			return name == "Sync" || name == "Send"
		case typeNameOf(rt) == "Task":
			return taskMethodNames[name]
		case typeNameOf(rt) == "System":
			return name == "Wait"
		case typeNameOf(rt) == "Virtual":
			return name == "Run" || name == "RunSchedules"
		case typeNameOf(rt) == "Concurrent":
			return name == "Run"
		case typeNameOf(rt) == "FT":
			return ftMethodNames[name]
		}
		return false
	}
	switch name {
	case "SyncAll":
		return len(call.Args) > 0 && isCtxType(info.TypeOf(call.Args[0]))
	case "Run", "RunVirtual", "RunConcurrent":
		// The facade runners: recognized by their (*Report, error) shape
		// so that unrelated functions named Run stay out of scope.
		sig := fn.Type().(*types.Signature)
		return sig.Results().Len() == 2 && typeNameOf(sig.Results().At(0).Type()) == "Report"
	}
	return isCollectiveCall(info, call, name)
}
