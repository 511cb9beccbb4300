package collective

import (
	"fmt"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// Collective-layer coverage for dynamic reorganization and elastic
// membership (DESIGN.md §5.7): the fault-tolerant collectives keep
// their chaos-matrix contract while the tree is being rebalanced under
// them. The catalogue's collectives on a reorganized tree, and with
// cuts due inside them, are swept in property_sweep_test.go.

// reorgMatrixEngines mirror matrixEngines with barrier-time
// reorganization enabled: the tree is rebalanced every second global
// barrier while the fault-tolerant collective runs.
var reorgMatrixEngines = []struct {
	name string
	run  func(plan *fabric.ChaosPlan, prog hbsp.Program) error
}{
	{"virtual", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		tr := model.UCFTestbedN(matrixP)
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = plan
		eng.ReorgEvery = 2
		eng.ReorgSeed = 9
		_, err := eng.Run(prog)
		return err
	}},
	{"concurrent", func(plan *fabric.ChaosPlan, prog hbsp.Program) error {
		eng := hbsp.NewConcurrent(model.UCFTestbedN(matrixP))
		eng.Chaos = plan
		eng.ReorgEvery = 2
		eng.ReorgSeed = 9
		_, err := eng.Run(prog)
		return err
	}},
}

// TestChaosMatrixUnderReorg re-runs the chaos matrix with the tree
// rebalancing under the collectives. The contract is unchanged: correct
// survivor-set data or a typed error, never a deadlock, never
// corruption — a crash landing inside a reorganization epoch included.
func TestChaosMatrixUnderReorg(t *testing.T) {
	keep := map[string]bool{
		"none": true, "crash-member": true,
		"crash-coordinator": true, "straggler-noise": true,
	}
	for _, eng := range reorgMatrixEngines {
		for _, plan := range matrixPlans {
			if !keep[plan.name] {
				continue
			}
			for _, op := range matrixOps {
				name := fmt.Sprintf("%s/%s/%s", eng.name, plan.name, op.name)
				t.Run(name, func(t *testing.T) {
					o := newOutcomes()
					runErr := eng.run(plan.plan, op.prog(o))
					checkCell(t, op.name, plan.victims, o, runErr)
				})
			}
		}
	}
}
