// Package variantcheck is the golden fixture for the collective-variant
// advice analyzer, checked against the deep wide-area grid tree
// (WideAreaGrid(3, 4, 12, 25000, 250000)): a megabyte broadcast through
// the flat one-phase variant is the "flat broadcast on a deep tree"
// mistake — the hierarchical variant is statically several times
// cheaper — while small payloads sit on the flat side of the crossover
// and symbolic payloads have no fixed side at all. A hierarchical
// broadcast is priced by its twoPhaseTop argument: at 16 KiB the
// two-phase top level costs more than it saves on this tree.
package variantcheck

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

func Gather(c Ctx, scope *Machine, root int, local []byte) (map[int][]byte, error) {
	return nil, c.Sync(scope, "gather")
}

func Run(prog func(Ctx) error) error { return nil }

func broadcastLarge() error {
	return Run(func(c Ctx) error {
		_, err := BcastOnePhase(c, nil, 0, make([]byte, 1<<20)) // want `collective BcastOnePhase at n=1048576 bytes costs .* BcastHier\(…, false\) costs .* cheaper`
		return err
	})
}

func broadcastSmall() error {
	return Run(func(c Ctx) error {
		// 64 bytes is far below the flat -> hierarchical crossover: the
		// per-level barriers of the hierarchical variant dominate.
		_, err := BcastOnePhase(c, nil, 0, make([]byte, 64))
		return err
	})
}

func broadcastUnknownSize(c Ctx, data []byte) error {
	// A symbolic payload has no fixed side of the crossover: no advice.
	_, err := BcastOnePhase(c, nil, 0, data)
	return err
}

func gatherLarge() error {
	return Run(func(c Ctx) error {
		// The flat gather is never beaten by the hierarchical one on this
		// model (same wide-area bytes, extra barriers): no advice even at
		// a megabyte per processor.
		_, err := Gather(c, nil, 0, make([]byte, 1<<20))
		return err
	})
}

func hierTwoPhaseMidsize() error {
	return Run(func(c Ctx) error {
		_, err := BcastHier(c, make([]byte, 16<<10), true) // want `collective BcastHier\(…, true\) at n=16384 bytes costs .* BcastHier\(…, false\) costs .* cheaper`
		return err
	})
}
