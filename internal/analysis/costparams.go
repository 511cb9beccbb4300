package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CostParams flags statically invalid HBSP^k model parameters:
//
//   - a literal bandwidth indicator g ≤ 0 handed to model.New/MustNew
//     (Validate rejects it at run time; the analyzer moves the failure
//     to vet time);
//   - WithComm/WithComp options with literal r or slowdown ≤ 0;
//   - WithSync with a literal negative L (zero is legal: a free
//     barrier);
//   - WithShare with a literal share outside [0, 1];
//   - a tree built by MustNew passed directly to an engine or fabric
//     constructor without .Normalize() — Validate requires the fastest
//     machine at r = 1, which only Normalize establishes.
var CostParams = &Analyzer{
	Name: "costparams",
	Doc:  "flag literal out-of-range g/L/r/share parameters and non-normalized trees",
	Run:  runCostParams,
}

// engineCtorNames take a *model.Tree that must be normalized.
var engineCtorNames = map[string]bool{
	"NewVirtual": true, "NewConcurrent": true, "RunVirtual": true,
	"New": true,                        // fabric.New(tree, cfg)
	"Run": true, "RunConcurrent": true, // hbspk facade
}

func runCostParams(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCostCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCostCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch fn.Name() {
	case "New", "MustNew":
		// Tree constructors: (root, g). Identified by a *Tree result.
		if len(call.Args) == 2 && resultsTree(fn) {
			if v, ok := constValue(pass, call.Args[1]); ok && v <= 0 {
				pass.Reportf(call.Args[1].Pos(), "bandwidth indicator g = %v, want > 0: Validate will reject this tree", v)
			}
		}
	case "WithComm":
		if v, ok := optionArg(pass, fn, call); ok && v <= 0 {
			pass.Reportf(call.Args[0].Pos(), "communication slowdown r = %v, want > 0", v)
		}
	case "WithComp":
		if v, ok := optionArg(pass, fn, call); ok && v <= 0 {
			pass.Reportf(call.Args[0].Pos(), "compute slowdown = %v, want > 0", v)
		}
	case "WithSync":
		if v, ok := optionArg(pass, fn, call); ok && v < 0 {
			pass.Reportf(call.Args[0].Pos(), "synchronization cost L = %v, want >= 0", v)
		}
	case "WithShare":
		if v, ok := optionArg(pass, fn, call); ok && (v < 0 || v > 1) {
			pass.Reportf(call.Args[0].Pos(), "workload share c = %v, want in [0, 1]", v)
		}
	}
	// Non-normalized tree flowing straight into an engine: the tree
	// argument is itself a MustNew call (not ...Normalize()).
	if engineCtorNames[fn.Name()] {
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			ifn := calleeFunc(pass.TypesInfo, inner)
			if ifn == nil || ifn.Name() != "MustNew" || !resultsTree(ifn) {
				continue
			}
			if typeNameOf(pass.TypesInfo.TypeOf(arg)) == "Tree" {
				pass.Reportf(arg.Pos(), "tree passed to %s without Normalize: Validate requires the fastest machine at r = 1", fn.Name())
			}
		}
	}
}

// resultsTree reports whether fn returns a *Tree (possibly with error).
func resultsTree(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	return res.Len() >= 1 && typeNameOf(res.At(0).Type()) == "Tree"
}

// optionArg extracts the literal numeric argument of a WithX option
// constructor, requiring the callee to return an Option-shaped result.
func optionArg(pass *Pass, fn *types.Func, call *ast.CallExpr) (float64, bool) {
	if len(call.Args) != 1 {
		return 0, false
	}
	if res := fn.Type().(*types.Signature).Results(); res.Len() != 1 || typeNameOf(res.At(0).Type()) != "Option" {
		return 0, false
	}
	return constValue(pass, call.Args[0])
}

// constValue folds a compile-time constant expression to float64.
func constValue(pass *Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	_ = ok // representable-with-rounding is fine for range checks
	return v, tv.Value.Kind() != constant.Unknown
}
