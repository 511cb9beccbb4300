package experiments

import (
	"fmt"

	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// KScaling exercises the model's generality beyond the paper's k ≤ 2
// analyses: the same sixteen processors are grouped into machines of
// height 1, 2, 3 and 4 (flat LAN → clusters of clusters → a chain of
// nested campus networks), with upper links slower and barriers costlier
// per level. The table reports the hierarchical gather and broadcast
// costs and the sync-depth fixed price at each k — quantifying §3.4's
// "additional overheads incurred by algorithms executing on HBSP^k
// platforms because of the synchronization and communication costs
// incurred at each level."
func KScaling(cfg Config) (*Result, error) {
	tb := trace.NewTable("cost of depth: the same 16 processors at k = 1..4 (400KB)",
		"k", "machine", "gather-hier", "bcast-hier", "sync-depth", "penalty vs k=1")
	res := &Result{
		ID:         "kscale",
		Title:      "Depth scaling: HBSP^1 through HBSP^4",
		PaperClaim: "per-level synchronization and communication overheads accumulate with k (§3.4)",
		Table:      tb,
	}
	n := 400 * KB
	machines := []struct {
		name string
		tr   *model.Tree
	}{
		{"flat-16", nestedMachine(1)},
		{"4x4", nestedMachine(2)},
		{"2x2x4", nestedMachine(3)},
		{"2x2x2x2", nestedMachine(4)},
	}
	var gSeries Series
	gSeries.Name = "gather-hier"
	base := 0.0
	for _, m := range machines {
		d := cost.BalancedDist(m.tr, n)
		g := cost.GatherHier(m.tr, d).Total()
		b := cost.BcastHier(m.tr, n, false).Total()
		if m.tr.K() == 1 {
			base = g
		}
		tb.AddF(m.tr.K(), m.name, g, b, m.tr.SyncDepthCost(), g/base)
		gSeries.Points = append(gSeries.Points, Point{X: float64(m.tr.K()), Y: g})
	}
	res.Series = []Series{gSeries}
	return res, nil
}

// nestedMachine groups sixteen heterogeneous leaves into a machine of
// the given height: at each added level, groups pair up under a parent
// whose network is 4x slower and whose barrier costs 4x more than the
// level below — the order-of-magnitude-per-level gradient of §1.
func nestedMachine(k int) *model.Tree {
	// Sixteen leaves with a 2x compute/communication spread.
	var nodes []*model.Machine
	for i := 0; i < 16; i++ {
		slow := 1 + float64(i)/15
		nodes = append(nodes, model.NewLeaf(fmt.Sprintf("p%02d", i),
			model.WithComm(slow), model.WithComp(slow)))
	}
	linkR, syncL := 2.0, 25000.0
	level := 0
	for level < k-1 {
		groupSize := len(nodes) / groupsAt(len(nodes), k-level)
		var next []*model.Machine
		for i := 0; i < len(nodes); i += groupSize {
			end := i + groupSize
			if end > len(nodes) {
				end = len(nodes)
			}
			next = append(next, model.NewCluster(
				fmt.Sprintf("g%d-%d", level, i/groupSize),
				nodes[i:end],
				model.WithComm(linkR), model.WithSync(syncL)))
		}
		nodes = next
		linkR *= 4
		syncL *= 4
		level++
	}
	root := model.NewCluster("top", nodes, model.WithSync(syncL))
	return model.MustNew(root, 1).Normalize()
}

// groupsAt picks how many groups to form so that k-1 grouping rounds
// over 16 leaves yield a balanced tree: 16 → 4 groups (k=2), 16 → 8 → 4
// is avoided in favour of even fanouts per height.
func groupsAt(n, remaining int) int {
	switch remaining {
	case 2:
		return 4 // final grouping: 4 children per top for k=2-style
	default:
		return n / 2 // halve repeatedly for deeper machines
	}
}
