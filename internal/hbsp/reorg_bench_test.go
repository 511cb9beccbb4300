package hbsp

import (
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// reorgBenchProg charges share-proportional work each round: the
// modeled equivalent of repartitioning the problem from the tree's
// current layout every superstep.
func reorgBenchProg(rounds int, scale float64) Program {
	return func(c Ctx) error {
		for r := 0; r < rounds; r++ {
			c.Charge(scale * c.Self().Share)
			if err := c.Sync(c.Tree().Root, "bench"); err != nil {
				return err
			}
		}
		return nil
	}
}

// stragglerMakespan is the modeled makespan of reorgBenchProg on
// UCFTestbedN(8) while the fastest leaf — holding the largest balanced
// share — runs at a tenth of its modeled speed for the whole run.
func stragglerMakespan(t *testing.T, reorgEvery int) float64 {
	tr := model.UCFTestbedN(8)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	eng.Chaos = &fabric.ChaosPlan{
		Seed:       42,
		Stragglers: []fabric.Straggler{{Pid: 0, FromStep: 0, ToStep: 1 << 20, Factor: 10}},
	}
	eng.ReorgEvery = reorgEvery
	eng.ReorgSeed = 42
	rep, err := eng.Run(reorgBenchProg(24, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Total
}

// TestReorgBeatsFrozenUnderStraggler holds the reason barrier-time
// reorganization exists: under a straggler-heavy seeded chaos plan, a run
// that rebalances the tree from measured estimates must beat the
// frozen-tree baseline on modeled makespan. The workload partitions each
// round's work by the current balanced share c_{i,j} — exactly what the
// paper's balanced distributions do — so a share that keeps pointing at a
// machine whose measured speed collapsed keeps gating the superstep, and
// rebalancing pays for itself: 8 437 602 against 41 504 265 when written,
// a fifth, held at 0.9.
func TestReorgBeatsFrozenUnderStraggler(t *testing.T) {
	frozen, reorg := stragglerMakespan(t, 0), stragglerMakespan(t, 2)
	t.Logf("modeled makespan: frozen %.0f, ReorgEvery=2 %.0f", frozen, reorg)
	if reorg > 0.9*frozen {
		t.Errorf("ReorgEvery=2 makespan %.0f, frozen %.0f: ratio %.3f over 0.9", reorg, frozen, reorg/frozen)
	}
}
