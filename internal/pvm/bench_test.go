package pvm

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hbspk/internal/testutil"
)

// Microbenchmarks of the message fabric's hot path, and the two tests
// that hold it to its allocation budget on the same workloads:
// TestSendPathAllocs (a ceiling per SendRecv round at each size)
// and TestSendRecvObserverOffAllocs (a cleared observer costs no
// allocation). The wall-clock side is the ladder's pvm.sendrecv_ns.
//
// Traffic is paced with a credit window, mirroring how superstep
// barriers bound in-flight messages in real HBSP runs: an unpaced
// producer would outrun the receiver without bound, which measures
// queue growth rather than the send path.

// benchWindow is the number of in-flight messages allowed before the
// sender waits for a credit.
const benchWindow = 32

// benchCreditTag is reserved for flow-control credits.
const benchCreditTag = 1 << 20

func sendCredit(t *Task, dst TID) error {
	return t.Send(dst, benchCreditTag, NewBuffer().PackInt32(1))
}

func awaitCredit(t *Task, src TID) error {
	m, err := t.Recv(src, benchCreditTag)
	if err != nil {
		return err
	}
	m.Release()
	return nil
}

func BenchmarkSendRecv(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

// packSink keeps BenchmarkPackInt64Slice's packing observable.
var packSink []byte

// BenchmarkPackInt64Slice packs a 2048-element vector, 16 KiB, into an
// array of its exact size, as a reduction packs each partial it sends;
// the allocation is part of the cost.
func BenchmarkPackInt64Slice(b *testing.B) {
	vs := make([]int64, 2048)
	for i := range vs {
		vs[i] = int64(i) * 0x5DEECE66D
	}
	b.SetBytes(8 * int64(len(vs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packSink = Wrap(make([]byte, 0, 5+8*len(vs))).PackInt64Slice(vs).Bytes()
	}
}

// BenchmarkSendRecvObsvOff is the observability overhead guard: the
// identical workload to BenchmarkSendRecv with the observer explicitly
// cleared, so the disabled-path cost of the obsv hooks — one atomic
// pointer load per delivery and pool draw — can be read off two adjacent
// lines of
//
//	go test -run '^$' -bench 'SendRecv(ObsvOff)?/' -benchtime 5000x ./internal/pvm
//
// (within 5% on ns/op when the hooks went in). Its allocation half is
// TestSendRecvObserverOffAllocs.
func BenchmarkSendRecvObsvOff(b *testing.B) {
	SetObserver(nil)
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

// benchObserver is a minimal metrics sink standing in for
// obsv.Recorder (pvm cannot import obsv: structural interface only).
type benchObserver struct{ depth, draws int64 }

func (o *benchObserver) MailboxDepth(d int) { o.depth += int64(d) }
func (o *benchObserver) PoolDraw(hit bool)  { o.draws++ }

// BenchmarkSendRecvObsvOn measures the enabled-observer cost of the
// same workload: informational, not gated.
func BenchmarkSendRecvObsvOn(b *testing.B) {
	SetObserver(&benchObserver{})
	defer SetObserver(nil)
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

func runSendRecvBench(b *testing.B, size int) {
	err := sendRecvRounds(0, b.N, size, func() {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		b.ResetTimer()
	}, b.StopTimer)
	if err != nil {
		b.Fatal(err)
	}
}

// sendRecvRounds is the credit-paced ping workload behind the SendRecv
// benchmark family: a round is one message of size bytes from one task
// to another. It runs warm rounds unmeasured and then rounds measured
// ones; its sender calls begin before the first measured round and end
// after the last. The benchmarks time it, the allocation tests count its
// allocations.
func sendRecvRounds(warm, rounds, size int, begin, end func()) error {
	payload := make([]byte, size)
	s := NewSystem()
	var recvTID, sendTID TID
	done := make(chan error, 1)
	ready := make(chan struct{})
	recvTID = s.Spawn("recv", func(t *Task) error {
		<-ready
		for i := 0; i < warm+rounds; i++ {
			m, err := t.Recv(AnySource, 7)
			if err != nil {
				done <- err
				return err
			}
			_, err = m.Buffer().UnpackBytes()
			m.Release()
			if err != nil {
				done <- err
				return err
			}
			if (i+1)%benchWindow == 0 {
				if err := sendCredit(t, sendTID); err != nil {
					done <- err
					return err
				}
			}
		}
		done <- nil
		return nil
	})
	sendTID = s.Spawn("send", func(t *Task) error {
		<-ready
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				begin()
			}
			if i >= benchWindow && i%benchWindow == 0 {
				if err := awaitCredit(t, recvTID); err != nil {
					return err
				}
			}
			buf := NewBuffer()
			buf.PackBytes(payload)
			if err := t.Send(recvTID, 7, buf); err != nil {
				return err
			}
		}
		end()
		return nil
	})
	close(ready) // both TIDs are assigned
	if err := <-done; err != nil {
		return err
	}
	return s.Wait()
}

// allocsPerRound runs sendRecvRounds at size for 500 warm and 5000
// measured rounds and returns the process's allocations per measured
// round. The race detector allocates on the program's behalf, so under
// it the test is skipped.
func allocsPerRound(t *testing.T, size int) float64 {
	if testutil.RaceEnabled() {
		t.Skip("the race detector changes the allocation count")
	}
	const warm, rounds = 500, 5000
	var before, after runtime.MemStats
	err := sendRecvRounds(warm, rounds, size,
		func() { runtime.ReadMemStats(&before) },
		func() { runtime.ReadMemStats(&after) })
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / rounds
}

// TestSendPathAllocs is the allocation ceiling of the warm send path:
// pooled wire records and the header that recycles with them leave a
// SendRecv round allocating next to nothing. Before the pool a round
// allocated 3; the ceiling is half of that, rounded down.
func TestSendPathAllocs(t *testing.T) {
	for _, size := range []int{64, 4096, 65536} {
		t.Run(fmt.Sprintf("SendRecv/n=%d", size), func(t *testing.T) {
			const ceiling = 1
			got := allocsPerRound(t, size)
			t.Logf("%.3f allocations per round", got)
			if got > ceiling {
				t.Errorf("%.3f allocations per warm round, ceiling %d", got, ceiling)
			}
		})
	}
}

// TestSendRecvObserverOffAllocs holds the disabled observability path
// to zero allocations of its own: a SendRecv round with the observer
// explicitly cleared allocates what a round allocates when none was
// ever installed, to the whole allocation.
func TestSendRecvObserverOffAllocs(t *testing.T) {
	without := allocsPerRound(t, 4096)
	SetObserver(nil)
	cleared := allocsPerRound(t, 4096)
	t.Logf("allocations per round: %.3f with no observer, %.3f with a cleared one", without, cleared)
	if math.Round(cleared) != math.Round(without) {
		t.Errorf("%.3f allocations per round with a cleared observer, %.3f with none", cleared, without)
	}
}

// BenchmarkMailboxContention hammers one receiver from many senders:
// with the split sender/receiver locks, enqueues no longer serialize
// against the drain.
func BenchmarkMailboxContention(b *testing.B) {
	for _, senders := range []int{4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			payload := make([]byte, 256)
			s := NewSystem()
			var recvTID TID
			sendTIDs := make([]TID, senders)
			done := make(chan error, 1)
			ready := make(chan struct{})
			total := b.N * senders
			recvTID = s.Spawn("recv", func(t *Task) error {
				close(ready)
				for i := 0; i < total; i++ {
					m, err := t.Recv(AnySource, AnyTag)
					if err != nil {
						done <- err
						return err
					}
					m.Release()
					if (i+1)%benchWindow == 0 {
						for _, st := range sendTIDs {
							if err := sendCredit(t, st); err != nil {
								done <- err
								return err
							}
						}
					}
				}
				done <- nil
				return nil
			})
			var start sync.WaitGroup
			start.Add(1)
			for i := 0; i < senders; i++ {
				i := i
				sendTIDs[i] = s.Spawn(fmt.Sprintf("send%d", i), func(t *Task) error {
					<-ready
					start.Wait()
					for n := 0; n < b.N; n++ {
						if n >= benchWindow && n%benchWindow == 0 {
							if err := awaitCredit(t, recvTID); err != nil {
								return err
							}
						}
						buf := NewBuffer()
						buf.PackBytes(payload)
						if err := t.Send(recvTID, i, buf); err != nil {
							return err
						}
					}
					return nil
				})
			}
			<-ready
			b.ReportAllocs()
			b.ResetTimer()
			start.Done()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
