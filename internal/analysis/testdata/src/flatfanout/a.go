// Package flatfanout is commgraph's second golden fixture: a
// self-contained replica of the HBSPlib Ctx surface with one seeded
// flat fan-out in a program body, the shapes that resemble it and are
// clean, and a helper whose exported superstep graph
// TestCommGraphExport pins.
package flatfanout

type Machine struct{}

type Ctx interface {
	Pid() int
	NProcs() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func SyncAll(c Ctx, label string) error { return c.Sync(nil, label) }

func BcastOnePhase(c Ctx, scope *Machine, root int, data []byte) ([]byte, error) {
	return data, c.Sync(scope, "bcast")
}

// Run stands in for the engine entry points: its function-literal
// argument executes from superstep zero.
func Run(prog func(Ctx) error) error { return nil }

// --- the seeded violation ---

// flatFanout hand-rolls a broadcast: the pid-0 root sends to every
// processor in one superstep, costing g·n·(p−1) at the root on any
// machine tree.
func flatFanout() error {
	return Run(func(c Ctx) error {
		data := make([]byte, 1<<20)
		if c.Pid() == 0 {
			for dst := 1; dst < c.NProcs(); dst++ {
				if err := c.Send(dst, 7, data); err != nil { // want `flat fan-out: one pid-guarded root sends to every processor`
					return err
				}
			}
		}
		return SyncAll(c, "fanout")
	})
}

// --- clean shapes ---

// usesCollective delegates to the library: no diagnostic.
func usesCollective() error {
	return Run(func(c Ctx) error {
		_, err := BcastOnePhase(c, nil, 0, make([]byte, 4096))
		if err != nil {
			return err
		}
		return SyncAll(c, "done")
	})
}

// totalExchangeEntry: every processor sends in the loop — no pid guard
// nests the send, so this is an h-relation, not a flat fan-out. The
// skip-self test is a sibling if, not an ancestor.
func totalExchangeEntry() error {
	return Run(func(c Ctx) error {
		data := make([]byte, 64)
		for dst := 0; dst < c.NProcs(); dst++ {
			if dst == c.Pid() {
				continue
			}
			if err := c.Send(dst, 11, data); err != nil {
				return err
			}
		}
		return SyncAll(c, "exchange")
	})
}

// flatInsideLibrary: the same shape in a plain function is the
// legitimate implementation of a flat collective — only program entry
// bodies are judged.
func flatInsideLibrary(c Ctx, data []byte) error {
	if c.Pid() == 0 {
		for dst := 1; dst < c.NProcs(); dst++ {
			if err := c.Send(dst, 9, data); err != nil {
				return err
			}
		}
	}
	return c.Sync(nil, "lib")
}

// --- export subject (no diagnostics; pinned by TestCommGraphExport) ---

// exchangeRounds has two superstep segments: one closed by a
// collective, one by a plain scoped sync after two folded sends.
func exchangeRounds(c Ctx, scope *Machine, payload []byte) error {
	if _, err := BcastOnePhase(c, scope, 0, make([]byte, 4096)); err != nil {
		return err
	}
	if err := c.Send(1, 5, make([]byte, 128)); err != nil {
		return err
	}
	if err := c.Send(2, 5, payload); err != nil {
		return err
	}
	return c.Sync(scope, "round")
}
