package wiretrans

import (
	"fmt"
	"testing"

	"hbspk/internal/pvm"
)

// BenchmarkLoopbackExchange is the rung below an engine superstep: one
// message packed as the engine packs it (the payload lent, not copied)
// and posted to a receiving task, Flush, TryRecvAll, Release — every
// user-space touch of a payload byte between a Send and the receiver's
// hands, and nothing of the engine. MB/s is payload bytes; B/op says how
// much fresh memory a delivered byte costs.
func BenchmarkLoopbackExchange(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"64B", 64}, {"64KiB", 64 << 10}, {"256KiB", 256 << 10}}
	for _, network := range []string{"unix", "tcp"} {
		for _, size := range sizes {
			b.Run(network+"/"+size.name, func(b *testing.B) {
				tr, err := NewLoopback(network)
				if err != nil {
					b.Fatalf("NewLoopback: %v", err)
				}
				sys := pvm.NewSystem()
				if err := sys.SetTransport(tr); err != nil {
					b.Fatalf("SetTransport: %v", err)
				}
				defer func() { _ = tr.Close() }()

				// The receiver only lends its mailbox: the sending task
				// drains it, so one goroutine walks the whole exchange.
				rt, stop := lendMailbox(sys)
				recv := rt.TID()
				payload := make([]byte, size.n)
				b.SetBytes(int64(size.n))
				b.ReportAllocs()
				b.ResetTimer()
				sys.Spawn("send", func(task *pvm.Task) error {
					defer stop()
					for i := 0; i < b.N; i++ {
						if err := task.Send(recv, 1, pvm.NewBuffer().PackBytesBorrowed(payload)); err != nil {
							return err
						}
						if err := task.Flush(); err != nil {
							return err
						}
						msgs := rt.TryRecvAll(pvm.AnySource, 1)
						if len(msgs) != 1 {
							return fmt.Errorf("%d messages after Flush, want 1", len(msgs))
						}
						msgs[0].Release()
					}
					return nil
				})
				if err := sys.Wait(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
