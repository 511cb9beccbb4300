package collective

import (
	"fmt"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Collective-layer coverage for dynamic reorganization (DESIGN.md
// §5.7): the fault-tolerant collectives keep their chaos-matrix contract
// while the tree is being rebalanced under them. The catalogue's
// collectives on a reorganized tree, and with cuts due inside them, are
// swept in property_sweep_test.go. Reorganization is Virtual's: the
// Concurrent engine runs the layout it starts with.

// TestChaosMatrixUnderReorg re-runs the chaos matrix on Virtual with the
// tree rebalanced every second global barrier under the collectives.
// The contract is unchanged: correct survivor-set data or a typed error,
// never a deadlock, never corruption — a crash landing inside a
// reorganization epoch included.
func TestChaosMatrixUnderReorg(t *testing.T) {
	keep := map[string]bool{
		"none": true, "crash-member": true,
		"crash-coordinator": true, "straggler-noise": true,
	}
	for _, plan := range matrixPlans {
		if !keep[plan.name] {
			continue
		}
		for _, op := range matrixOps {
			t.Run(fmt.Sprintf("virtual/%s/%s", plan.name, op.name), func(t *testing.T) {
				o := newOutcomes()
				tr := model.UCFTestbedN(matrixP)
				eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = plan.plan, 2, 9
				_, runErr := eng.Run(op.prog(o))
				checkCell(t, op.name, plan.victims, o, runErr)
			})
		}
	}
}
