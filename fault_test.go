package hbspk

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestSeededChurnDeterministic(t *testing.T) {
	a := SeededChurn(42, 8, 2, 2, 4)
	b := SeededChurn(42, 8, 2, 2, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal arguments produced different schedules: %v vs %v", a, b)
	}
	joins, leaves := 0, 0
	for _, c := range a {
		if c.JoinAt > 0 {
			joins++
		}
		if c.LeaveAt > 0 {
			leaves++
			if c.Pid == 0 {
				t.Fatalf("pid 0 must never leave: %v", c)
			}
		}
	}
	if joins != 2 || leaves != 2 {
		t.Fatalf("got %d joins / %d leaves, want 2 / 2 in %v", joins, leaves, a)
	}
}

// elasticRootProg is a churn-tolerant workload over the public API: a
// few share-proportional rounds absorbing failure and join notices,
// then a fault-tolerant session and a LiveShares renormalization check
// on the survivors. A leaver returns its typed departure error; the
// run's verdict must still be success.
func elasticRootProg(rounds int) Program {
	return func(c Ctx) error {
		root := c.Tree().Root
		for r := 0; r < rounds; r++ {
			c.Charge(50 * c.Self().Share)
			err := c.Sync(root, "round")
			for err != nil {
				if IsCrashStop(err) || IsLeave(err) {
					return err
				}
				var pf *ErrPeerFailed
				var pj *ErrPeerJoined
				if !errors.As(err, &pf) && !errors.As(err, &pj) {
					return err
				}
				err = c.Sync(root, "retry")
			}
		}
		live := NewFT(c, root).Live()
		shares := LiveShares(c, root, live)
		sum := 0.0
		for _, s := range shares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("p%d: live shares sum to %v over %v, want 1", c.Pid(), sum, live)
		}
		return nil
	}
}

func TestRunElasticSelfHealing(t *testing.T) {
	base := UCFTestbedN(4)
	cfg := ElasticConfig{
		Fabric: PureModelFabric(),
		Chaos: &ChaosPlan{
			Seed:       11,
			Churns:     []Churn{{Pid: 2, LeaveAt: 2}},
			Stragglers: []Straggler{{Pid: 1, FromStep: 0, ToStep: 8, Factor: 4}},
		},
		ReorgEvery: 2,
		ReorgSeed:  9,
	}
	r1, err := RunElastic(base.Clone(), cfg, elasticRootProg(6))
	if err != nil {
		t.Fatalf("RunElastic: %v", err)
	}
	r2, err := RunElastic(base.Clone(), cfg, elasticRootProg(6))
	if err != nil {
		t.Fatalf("RunElastic (repeat): %v", err)
	}
	if r1.Total != r2.Total {
		t.Fatalf("equal seeds diverged: makespan %v vs %v", r1.Total, r2.Total)
	}
	ccfg := ElasticConfig{Chaos: cfg.Chaos, ReorgEvery: 2, ReorgSeed: 9}
	if _, err := RunConcurrentElastic(base.Clone(), ccfg, elasticRootProg(6)); err != nil {
		t.Fatalf("RunConcurrentElastic: %v", err)
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
				if IsCrashStop(err) {
					victim.Add(1)
					return err
				}
				var pf *ErrPeerFailed
				if !errors.As(err, &pf) {
					return err
				}
				err = c.Sync(root, "retry")
			}
		}
		return nil
	}
	base := UCFTestbedN(4)
	if _, err := RunChaos(base.Clone(), PureModelFabric(), plan, prog); err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if _, err := RunConcurrentChaos(base.Clone(), plan, prog); err != nil {
		t.Fatalf("RunConcurrentChaos: %v", err)
	}
	if got := victim.Load(); got != 2 {
		t.Fatalf("victim observed its crash-stop %d times, want once per engine", got)
	}
}
