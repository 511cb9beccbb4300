package collective

import (
	"bytes"
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

const tagBinomial = 10

// BcastBinomial is the binomial-tree broadcast over the scope's subtree:
// ⌈log2 p⌉ supersteps in which the set of holders doubles — each holder
// forwards the whole data to one non-holder per round. The related work
// (P-logP, reference [13]) tunes such tree shapes; under the HBSP^k
// model the binomial tree trades the one-phase broadcast's single
// g·n·(p−1) superstep for log p supersteps of g·n each:
//
//	T = ⌈log2 p⌉ · (g·n·r̂ + L)
//
// so it beats one-phase when synchronization is cheap relative to
// bandwidth, and loses to two-phase at large n (which moves each byte
// at most twice). Holders pair with targets in rank order: round k has
// holder i (participant index < 2^k) send to index i + 2^k — the
// classic recursive doubling, with the fastest machines becoming
// holders earliest (§4.1's first principle) when root is the
// coordinator and participant order is pid order.
func BcastBinomial(c hbsp.Ctx, scope *model.Machine, root int, data []byte) ([]byte, error) {
	defer hbsp.Span(c, "bcast-binomial")(len(data))
	pids := scope.Pids()
	p := len(pids)
	rootIdx := indexOf(pids, root)
	if rootIdx < 0 {
		return nil, fmt.Errorf("collective: root %d outside scope %s", root, scope.Label())
	}
	me := indexOf(pids, c.Pid())
	if me < 0 {
		return nil, fmt.Errorf("collective: pid %d outside scope %s", c.Pid(), scope.Label())
	}
	// Rotate indexes so the root has virtual index 0.
	virt := (me - rootIdx + p) % p
	have := data
	if virt != 0 {
		have = nil
	}
	for stride, round := 1, 0; stride < p; stride, round = stride*2, round+1 {
		if virt < stride && virt+stride < p {
			target := pids[(virt+stride+rootIdx)%p]
			if err := c.Send(target, tagBinomial, have); err != nil {
				return nil, err
			}
		}
		if err := c.Sync(scope, fmt.Sprintf("bcast-binomial r%d", round)); err != nil {
			return nil, err
		}
		if virt >= stride && virt < 2*stride {
			for _, m := range c.Moves() {
				if m.Tag == tagBinomial {
					have = bytes.Clone(m.Payload)
				}
			}
			if have == nil {
				return nil, fmt.Errorf("collective: processor %d missed its binomial round %d", c.Pid(), round)
			}
		}
	}
	return have, nil
}
