package analysis

import (
	"fmt"
	"go/ast"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// The two goldens are the "known switchpoints as static advice"
// contract: flat -> hierarchical broadcast on the deep grid, one-phase
// -> two-phase broadcast on the calibrated UCF testbed.
var variantGoldens = []struct {
	fixture string
	tree    func() *model.Tree
}{
	{"variantcheck", func() *model.Tree { return model.WideAreaGrid(3, 4, 12, 25000, 250000) }},
	{"variantcheckucf", model.UCFTestbed},
}

func TestVariantCheckGoldenGrid(t *testing.T) {
	runGolden(t, VariantCheck(variantGoldens[0].tree()), variantGoldens[0].fixture)
}

func TestVariantCheckGoldenUCF(t *testing.T) {
	runGolden(t, VariantCheck(variantGoldens[1].tree()), variantGoldens[1].fixture)
}

// TestVariantAdviceHoldsOnVirtual checks the advice against the engine
// it is advice for. Every constant-size collective callsite of the two
// goldens is priced as the analyzer prices it, then run on Virtual under
// the pure cost model with the golden's tree and size. Where the
// analyzer advises a switch, the advised variant must finish at least
// adviceRatio times sooner than the called one; where it is silent, the
// called variant must be within adviceRatio of the family's fastest.
func TestVariantAdviceHoldsOnVirtual(t *testing.T) {
	advised, silent := 0, 0
	for _, g := range variantGoldens {
		tr := g.tree()
		loader, err := NewLoader("testdata/src")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(g.fixture)
		if err != nil {
			t.Fatal(err)
		}
		pkg := pkgs[0]
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				called, best, size, ok := priceCall(pass, tr, call)
				if !ok {
					return true
				}
				name := fmt.Sprintf("%s/line%d/%s", g.fixture, pkg.Fset.Position(call.Pos()).Line, called.Name)
				t.Run(name, func(t *testing.T) {
					calledT := virtualTotal(t, tr, called.Name, size)
					if called.Predict(tr, size) > adviceRatio*best.Predict(tr, size) {
						advised++
						bestT := virtualTotal(t, tr, best.Name, size)
						t.Logf("advised: %s %.4g -> %s %.4g (%.2fx)", called.Name, calledT, best.Name, bestT, calledT/bestT)
						if calledT < adviceRatio*bestT {
							t.Errorf("advice %s -> %s at n=%d: Virtual charges %.4g and %.4g, under a %.1fx win",
								called.Name, best.Name, size, calledT, bestT, adviceRatio)
						}
						return
					}
					silent++
					fastest, fastestT := "", 0.0
					for _, v := range plan.VariantsFor(called.Family) {
						if vt := virtualTotal(t, tr, v.Name, size); fastest == "" || vt < fastestT {
							fastest, fastestT = v.Name, vt
						}
					}
					t.Logf("silent: %s %.4g, fastest %s %.4g", called.Name, calledT, fastest, fastestT)
					if calledT > adviceRatio*fastestT {
						t.Errorf("no advice for %s at n=%d, but Virtual charges %.4g against %s's %.4g",
							called.Name, size, calledT, fastest, fastestT)
					}
				})
				return true
			})
		}
	}
	if advised == 0 || silent == 0 {
		t.Errorf("the goldens gave %d advised and %d silent constant-size callsites, want some of each", advised, silent)
	}
}

// virtualTotal runs one collective variant, named by its plan table row,
// on Virtual under the pure cost model: n total bytes, rooted at the
// fastest leaf and, for a gather, an equal piece from every processor.
func virtualTotal(t *testing.T, tr *model.Tree, variant string, n int) float64 {
	t.Helper()
	eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	rep, err := eng.Run(func(c hbsp.Ctx) error {
		tree := c.Tree()
		root := tree.Pid(tree.FastestLeaf())
		var data []byte
		if c.Pid() == root {
			data = make([]byte, n)
		}
		local := make([]byte, n/tree.NProcs())
		var err error
		switch variant {
		case "BcastOnePhase":
			_, err = collective.BcastOnePhase(c, tree.Root, root, data)
		case "BcastTwoPhase":
			var dist collective.Dist
			if c.Pid() == root {
				dist = collective.BalancedPieces(c, tree.Root, n)
			}
			_, err = collective.BcastTwoPhase(c, tree.Root, root, data, dist)
		case "BcastBinomial":
			_, err = collective.BcastBinomial(c, tree.Root, root, data)
		case "BcastHier":
			_, err = collective.BcastHier(c, data, false)
		case "BcastHierTwoPhase":
			_, err = collective.BcastHier(c, data, true)
		case "Gather":
			_, err = collective.Gather(c, tree.Root, root, local)
		case "GatherHier":
			_, err = collective.GatherHier(c, local)
		default:
			err = fmt.Errorf("no Virtual runner for variant %s", variant)
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s at n=%d: %v", variant, n, err)
	}
	return rep.Total
}
