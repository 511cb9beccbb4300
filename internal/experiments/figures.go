package experiments

import (
	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Figure3a reproduces the paper's Figure 3(a): the gather's improvement
// factor T_s/T_f from rooting the operation at the fastest processor
// instead of the slowest, with equal workloads (c_j = 1/p). The paper
// reports improvement growing with p, steady across problem sizes, and
// the counter-intuitive T_s/T_f < 1 at p = 2 explained in §5.2 by the
// no-self-send rule and PVM's expensive send path.
func Figure3a(cfg Config) (*Result, error) {
	return improvementFigure(cfg, "fig3a",
		"Figure 3(a): gather, slow root vs fast root",
		"improvement grows with p and is steady across sizes; < 1 at p=2",
		"T_s/T_f",
		func(tr *model.Tree, n int) (hbsp.Program, hbsp.Program) {
			d := cost.EqualDist(tr, n)
			return gather(d, tr.Pid(tr.SlowestLeaf())), gather(d, tr.Pid(tr.FastestLeaf()))
		})
}

// Figure3b reproduces Figure 3(b): the gather's improvement factor
// T_u/T_b from balancing the workload by estimated c_j, a seeded draw of
// estimation error, as the paper's BYTEmark ranking gives (root fixed at
// the fastest processor). The paper finds "virtually no
// benefit ... except at p=2", because the second fastest processor's
// estimated share overshoots its communication ability.
func Figure3b(cfg Config) (*Result, error) {
	return improvementFigure(cfg, "fig3b",
		"Figure 3(b): gather, unbalanced vs balanced workloads",
		"virtually no benefit (≈1), except at p=2",
		"T_u/T_b",
		func(tr *model.Tree, n int) (hbsp.Program, hbsp.Program) {
			root := tr.Pid(tr.FastestLeaf())
			return gather(cost.EqualDist(tr, n), root), gather(cost.BalancedDist(tr, n), root)
		})
}

// Figure4a reproduces Figure 4(a): the two-phase broadcast's improvement
// factor T_s/T_f from rooting at the fastest processor. The paper (and
// the model) predict negligible improvement: every processor must
// receive all n items, so the slowest machine bottlenecks either way.
func Figure4a(cfg Config) (*Result, error) {
	return improvementFigure(cfg, "fig4a",
		"Figure 4(a): broadcast, slow root vs fast root",
		"negligible improvement (≈1), as the model predicts",
		"T_s/T_f",
		func(tr *model.Tree, n int) (hbsp.Program, hbsp.Program) {
			return bcastTwoPhase(tr.Pid(tr.SlowestLeaf()), n), bcastTwoPhase(tr.Pid(tr.FastestLeaf()), n)
		})
}

// Figure4b reproduces Figure 4(b): the two-phase broadcast's improvement
// factor T_u/T_b from distributing c_j·n first-phase pieces instead of
// n/p (root fixed at the fastest processor). The paper: "there is no
// benefit to balanced workloads since each processor must receive all of
// the items."
func Figure4b(cfg Config) (*Result, error) {
	return improvementFigure(cfg, "fig4b",
		"Figure 4(b): broadcast, unbalanced vs balanced first phase",
		"no benefit (≈1): every processor still receives all n items",
		"T_u/T_b",
		func(tr *model.Tree, n int) (hbsp.Program, hbsp.Program) {
			root := tr.Pid(tr.FastestLeaf())
			return bcastTwoPhase(root, n), bcast(root, n, func(c hbsp.Ctx, in []byte) ([]byte, error) {
				var d collective.Dist
				if c.Pid() == root {
					d = collective.BalancedPieces(c, c.Tree().Root, n)
				}
				return collective.BcastTwoPhase(c, c.Tree().Root, root, in, d)
			})
		})
}
