// Package variantcheckucf is the second variantcheck golden, checked
// against the calibrated UCF testbed: a megabyte one-phase broadcast
// sits far above the paper's one-phase -> two-phase crossover
// n* = L/(g·(m−2−r_s)) ≈ 3.7 KB, so the two-phase family is statically
// several times cheaper (on this near-flat tree the hierarchical
// broadcast with a two-phase top edges out plain two-phase by its
// slightly cheaper top level, and is what the advice names). That same
// call is therefore silent, and a BcastHier whose twoPhaseTop is not a
// constant has no fixed price and is silent too.
package variantcheckucf

type Machine struct{}

type Ctx interface {
	Pid() int
	NProcs() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func BcastOnePhase(c Ctx, scope *Machine, root int, data []byte) ([]byte, error) {
	return data, c.Sync(scope, "bcast")
}

func BcastHier(c Ctx, data []byte, twoPhaseTop bool) ([]byte, error) {
	return data, c.Sync(nil, "bcast-hier")
}

func Run(prog func(Ctx) error) error { return nil }

func broadcastLarge() error {
	return Run(func(c Ctx) error {
		_, err := BcastOnePhase(c, nil, 0, make([]byte, 1<<20)) // want `collective BcastOnePhase at n=1048576 bytes costs .* BcastHier\(…, true\) costs .* cheaper`
		return err
	})
}

func broadcastSmall() error {
	return Run(func(c Ctx) error {
		_, err := BcastOnePhase(c, nil, 0, make([]byte, 64))
		return err
	})
}

func hierTwoPhaseLarge() error {
	return Run(func(c Ctx) error {
		_, err := BcastHier(c, make([]byte, 1<<20), true)
		return err
	})
}

func hierTopChosenAtRunTime(twoPhaseTop bool) error {
	return Run(func(c Ctx) error {
		_, err := BcastHier(c, make([]byte, 1<<20), twoPhaseTop)
		return err
	})
}
