package hbspk

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

// elasticRootProg is a churn-tolerant workload over the public API: a
// few share-proportional rounds absorbing failure notices,
// then a fault-tolerant session whose live set must have lost the
// leaver. A leaver returns its typed departure error; the run's verdict
// must still be success.
func elasticRootProg(rounds, leaver int) Program {
	return func(c Ctx) error {
		root := c.Tree().Root
		for r := 0; r < rounds; r++ {
			c.Charge(50 * c.Self().Share)
			err := c.Sync(root, "round")
			for err != nil {
				var pf *ErrPeerFailed
				if !errors.As(err, &pf) {
					return err
				}
				err = c.Sync(root, "retry")
			}
		}
		if live := NewFT(c, root).Live(); slices.Contains(live, leaver) {
			return fmt.Errorf("p%d: leaver p%d still live in %v", c.Pid(), leaver, live)
		}
		return nil
	}
}

func TestRunElasticSelfHealing(t *testing.T) {
	plan := &ChaosPlan{
		Seed:       11,
		Churns:     []Churn{{Pid: 2, LeaveAt: 2}},
		Stragglers: []Straggler{{Pid: 1, FromStep: 0, ToStep: 8, Factor: 4}},
	}
	virtual := func() (*Report, error) {
		tr := model.UCFTestbedN(4)
		eng := hbsp.NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos, eng.ReorgEvery, eng.ReorgSeed = plan, 2, 9
		return eng.Run(elasticRootProg(6, 2))
	}
	r1, err := virtual()
	if err != nil {
		t.Fatalf("virtual: %v", err)
	}
	r2, err := virtual()
	if err != nil {
		t.Fatalf("virtual (repeat): %v", err)
	}
	if r1.Total != r2.Total {
		t.Fatalf("equal seeds diverged: makespan %v vs %v", r1.Total, r2.Total)
	}
	// Concurrent runs the leave and the straggler; reorganization is
	// Virtual's.
	eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
	eng.Chaos = plan
	if _, err := eng.Run(elasticRootProg(6, 2)); err != nil {
		t.Fatalf("concurrent: %v", err)
	}
}

func TestRunChaosVictimSeesCrashStop(t *testing.T) {
	plan := &ChaosPlan{Seed: 3, Crashes: []Crash{{Pid: 3, AtStep: 1}}}
	var victim atomic.Int32
	prog := func(c Ctx) error {
		root := c.Tree().Root
		for r := 0; r < 4; r++ {
			err := c.Sync(root, "round")
			for err != nil {
				var pf *ErrPeerFailed
				if !errors.As(err, &pf) {
					if c.Pid() == 3 {
						victim.Add(1)
					}
					return err
				}
				err = c.Sync(root, "retry")
			}
		}
		return nil
	}
	if _, err := RunChaos(model.UCFTestbedN(4), PureModelFabric(), plan, prog); err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	eng := hbsp.NewConcurrent(model.UCFTestbedN(4))
	eng.Chaos = plan
	if _, err := eng.Run(prog); err != nil {
		t.Fatalf("concurrent: %v", err)
	}
	if got := victim.Load(); got != 2 {
		t.Fatalf("victim unwound with its crash-stop %d times, want once per engine", got)
	}
}
