package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// VariantCheckName identifies the collective-variant advice analyzer.
// Unlike the correctness suite it needs a concrete machine tree, so it
// is constructed per invocation (hbspk-vet -tree) rather than joining
// All(); its findings are advice, not errors — hbspk-vet reports them
// under a distinct exit code.
const VariantCheckName = "variantcheck"

// adviceRatio is how many times cheaper another variant must be
// predicted before variantcheck advises the switch.
const adviceRatio = 1.2

// VariantCheck returns an analyzer that prices every collective
// callsite whose payload size folds to a constant against the shipped
// variants' closed-form costs on tree (the plan table), and reports when
// another variant of the same family is more than adviceRatio times
// cheaper. This is the paper's §4.4 switchpoint reasoning run at vet
// time: the crossovers are properties of the calibrated model, so a
// callsite on the wrong side of one is visible without running the
// program. Test files are not judged: tests call every variant at every
// size on purpose.
func VariantCheck(tree *model.Tree) *Analyzer {
	return &Analyzer{
		Name: VariantCheckName,
		Doc:  "advise collective-variant switches the machine tree makes statically profitable",
		Run: func(pass *Pass) error {
			runVariantCheck(pass, tree)
			return nil
		},
	}
}

func runVariantCheck(pass *Pass, tree *model.Tree) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			called, best, size, ok := priceCall(pass, tree, call)
			if !ok {
				return true
			}
			calledCost, bestCost := called.Predict(tree, size), best.Predict(tree, size)
			if calledCost > bestCost*adviceRatio {
				pass.Reportf(call.Pos(),
					"collective %s at n=%d bytes costs %.4g on this tree; %s costs %.4g (%.1fx cheaper) — switch is statically knowable",
					callName(called.Name), size, calledCost, callName(best.Name), bestCost, calledCost/bestCost)
			}
			return true
		})
	}
}

// collSizeSpec maps a collective entrypoint to the argument carrying
// its payload, and whether that payload is per processor (the family's
// total problem size is then p times it).
type collSizeSpec struct {
	Arg     int
	PerProc bool
}

// collSizeSpecs covers the entrypoints the plan table prices.
var collSizeSpecs = map[string]collSizeSpec{
	"Gather":        {3, true},
	"GatherHier":    {1, true},
	"BcastOnePhase": {3, false},
	"BcastTwoPhase": {3, false},
	"BcastBinomial": {3, false},
	"BcastHier":     {1, false},
	"Scatter":       {3, false},
	"ScatterHier":   {1, false},
	"AllGather":     {2, true},
	"AllGatherHier": {1, true},
	"Reduce":        {3, true},
	"ReduceHier":    {1, true},
	"AllReduce":     {1, true},
	"Scan":          {2, true},
	"ScanHier":      {1, true},
	"TotalExchange": {2, false},
}

// priceCall resolves a collective call to the table variant it runs and
// the family's cheapest variant at the call's total payload size. ok is
// false for anything that is not such a call, or whose size or variant
// does not fold to a constant: a symbolic size has no fixed side of a
// crossover.
func priceCall(pass *Pass, tree *model.Tree, call *ast.CallExpr) (called, best plan.CostVariant, size int, ok bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || !isCollectiveCall(pass.TypesInfo, call, fn.Name()) {
		return called, best, 0, false
	}
	spec, ok := collSizeSpecs[fn.Name()]
	if !ok || spec.Arg >= len(call.Args) {
		return called, best, 0, false
	}
	row, ok := variantRow(pass, call, fn.Name())
	if !ok {
		return called, best, 0, false
	}
	n, ok := constBytes(pass, call.Args[spec.Arg])
	if spec.PerProc {
		n *= float64(tree.NProcs())
	}
	if !ok || n < 1 {
		return called, best, 0, false
	}
	size = int(n)
	called, ok = plan.VariantByName(row)
	if !ok {
		return called, best, 0, false
	}
	best, _, ok = plan.BestVariant(tree, called.Family, size)
	return called, best, size, ok
}

// variantRow names the table row a call runs. BcastHier is two rows,
// chosen by its twoPhaseTop argument, so it resolves only when that
// argument is a constant.
func variantRow(pass *Pass, call *ast.CallExpr, name string) (string, bool) {
	if name != "BcastHier" {
		return name, true
	}
	if len(call.Args) < 3 {
		return "", false
	}
	tv := pass.TypesInfo.Types[call.Args[2]]
	if tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return "", false
	}
	if constant.BoolVal(tv.Value) {
		return "BcastHierTwoPhase", true
	}
	return "BcastHier", true
}

// callName renders a table row as the call that runs it.
func callName(row string) string {
	switch row {
	case "BcastHier":
		return "BcastHier(…, false)"
	case "BcastHierTwoPhase":
		return "BcastHier(…, true)"
	}
	return row
}

// constBytes folds a payload argument to a constant byte count: a
// make([]T, N) with constant N, or a slice composite literal.
func constBytes(pass *Pass, e ast.Expr) (float64, bool) {
	e = ast.Unparen(e)
	t := pass.TypesInfo.TypeOf(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 2 {
			if v, ok := constValue(pass, x.Args[1]); ok {
				return elemBytes(t) * v, true
			}
		}
	case *ast.CompositeLit:
		if t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				return elemBytes(t) * float64(len(x.Elts)), true
			}
		}
	}
	return 0, false
}

// elemBytes returns the element size in bytes of a slice type, 1 for
// anything else.
func elemBytes(t types.Type) float64 {
	if t == nil {
		return 1
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return 1
	}
	return float64(types.SizesFor("gc", "amd64").Sizeof(sl.Elem()))
}
