package collective

import (
	"testing"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
	"hbspk/internal/pvm"
)

// BenchmarkCollectiveRound is the collective rung of the ladder, the Go
// benchmark twin of the wall-clock benchmark's coll_tcp workload: ns/op
// is one round of BcastHier (two-phase at the top), GatherHier,
// AllReduce(Sum), TotalExchangeHier and PlannedBcast, 64 KiB each, on the
// four processors of WideAreaGrid(2,2,4,10,100) on Concurrent, in-proc
// and over TCP loopback; B/op and allocs/op are everything the round
// allocates, on every processor. No gate of its own: the allocation
// ceilings of hier_test.go hold the copies.
func BenchmarkCollectiveRound(b *testing.B) {
	const n, warm = 64 << 10, 30
	for _, tf := range pvm.TransportFactories() {
		if tf.Name != "inproc" && tf.Name != "tcp" {
			continue
		}
		b.Run(tf.Name, func(b *testing.B) {
			tr := model.WideAreaGrid(2, 2, 4, 10, 100)
			p, root := tr.NProcs(), tr.Pid(tr.FastestLeaf())
			data, planned := payloadFor(root, n), payloadFor(root+1, n)
			vec := make([]int64, n/p/8)
			pieces := make([][]byte, p)
			outgoing := make([]map[int][]byte, p)
			for src := range outgoing {
				pieces[src] = payloadFor(src, n/p)
				outgoing[src] = make(map[int][]byte, p)
				for dst := 0; dst < p; dst++ {
					outgoing[src][dst] = payloadFor(src*p+dst, n/(p*p))
				}
			}
			pl := plan.New()
			b.SetBytes(5 * n)
			b.ReportAllocs()
			_, err := conformanceEngine(tf, tr).Run(func(c hbsp.Ctx) error {
				pid := c.Pid()
				var in, pin []byte
				if pid == root {
					in, pin = data, planned
				}
				for r := 0; r < warm+b.N; r++ {
					if r == warm && pid == root {
						b.ResetTimer()
					}
					if _, err := BcastHier(c, in, true); err != nil {
						return err
					}
					if _, err := GatherHier(c, pieces[pid]); err != nil {
						return err
					}
					if _, err := AllReduce(c, vec, Sum); err != nil {
						return err
					}
					if _, err := TotalExchangeHier(c, outgoing[pid]); err != nil {
						return err
					}
					if _, err := PlannedBcast(c, pl, n, pin); err != nil {
						return err
					}
				}
				if pid == root {
					b.StopTimer()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
