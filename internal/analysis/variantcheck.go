package analysis

import (
	"go/ast"

	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// VariantCheckName identifies the collective-variant advice analyzer.
// Unlike the correctness suite it needs a concrete machine tree, so it
// is constructed per invocation (hbspk-vet -cost -tree) rather than
// joining All(); its findings are advice, not errors — hbspk-vet
// reports them under a distinct exit code.
const VariantCheckName = "variantcheck"

// VariantCheck returns an analyzer that evaluates every collective
// callsite whose payload size is statically known against the shipped
// variants' closed-form costs on tree, and reports when a statically
// knowable switch — flat to hierarchical, one-phase to two-phase —
// wins by more than ratio. This is the paper's §4.4 switchpoint
// reasoning run at vet time: the crossovers (n* = L/(g·(m−2−r_s)) and
// its hierarchical analogues) are properties of the calibrated model,
// so a callsite on the wrong side of one is visible without running
// the program.
func VariantCheck(tree *model.Tree, ratio float64) *Analyzer {
	if ratio < 1 {
		ratio = 1
	}
	return &Analyzer{
		Name: VariantCheckName,
		Doc:  "advise collective-variant switches the machine tree makes statically profitable",
		Run: func(pass *Pass) error {
			return runVariantCheck(pass, tree, ratio)
		},
	}
}

func runVariantCheck(pass *Pass, tree *model.Tree, ratio float64) error {
	env := &CostEnv{Tree: tree}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cf, ok := collFactOf(pass, call, call.Pos())
			if !ok {
				return true
			}
			v, ok := plan.VariantByName(cf.Name)
			if !ok {
				return true
			}
			// Advice only when the payload size folds: a symbolic size has
			// no fixed side of the crossover.
			nf, err := cf.Size.Eval(env)
			if err != nil || nf < 1 {
				return true
			}
			size := int(nf)
			called := v.Predict(tree, size)
			best, bestCost, ok := plan.BestVariant(tree, v.Family, size)
			if !ok || best.Name == v.Name || bestCost <= 0 {
				return true
			}
			if called > bestCost*ratio {
				pass.Reportf(call.Pos(),
					"collective %s at n=%d bytes costs %.4g on this tree; %s costs %.4g (%.1fx cheaper) — switch is statically knowable",
					cf.Name, size, called, best.Name, bestCost, called/bestCost)
			}
			return true
		})
	}
	return nil
}
