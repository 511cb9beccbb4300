package hbsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// sendMutateProg sends a buffer to pid 1 and then rewrites it after the
// Send — the classic shared-buffer race both engines' checkers must
// catch at delivery time (the checksum stamped at Send no longer
// matches the delivered bytes).
func sendMutateProg(c Ctx) error {
	if c.Pid() == 0 {
		buf := []byte{1, 2, 3, 4}
		if err := c.Send(1, 0, buf); err != nil {
			return err
		}
		buf[0] = 0xEE // the deliberate post-send mutation the verifier must catch
	}
	return SyncAll(c, "deliver")
}

func TestVerifyCatchesMutationAfterSend(t *testing.T) {
	tr := model.UCFTestbedN(3)
	engines := map[string]func() error{
		"virtual": func() error {
			eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
			eng.Verify = true
			_, err := eng.Run(sendMutateProg)
			return err
		},
		"concurrent": func() error {
			eng := NewConcurrent(tr)
			eng.Verify = true
			_, err := eng.Run(sendMutateProg)
			return err
		},
	}
	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			err := run()
			var nd *ErrNondeterminism
			if !errors.As(err, &nd) {
				t.Fatalf("err = %v, want ErrNondeterminism", err)
			}
			if nd.Pid != 1 || nd.Src != 0 {
				t.Errorf("violation at pid %d src %d, want pid 1 src 0 (%v)", nd.Pid, nd.Src, nd)
			}
		})
	}
}

// readerMutateProg has the receiver rewrite a delivered payload inside
// its read window; the window recheck at its next Sync must flag it.
func readerMutateProg(c Ctx) error {
	if c.Pid() == 0 {
		if err := c.Send(1, 0, []byte{9, 9}); err != nil {
			return err
		}
	}
	if err := SyncAll(c, "deliver"); err != nil {
		return err
	}
	if c.Pid() == 1 && len(c.Moves()) > 0 {
		c.Moves()[0].Payload[0] = 0x55
	}
	return SyncAll(c, "close")
}

func TestVerifyCatchesReadWindowMutation(t *testing.T) {
	tr := model.UCFTestbedN(3)
	engines := map[string]func() error{
		"virtual": func() error {
			eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
			eng.Verify = true
			_, err := eng.Run(readerMutateProg)
			return err
		},
		"concurrent": func() error {
			eng := NewConcurrent(tr)
			eng.Verify = true
			_, err := eng.Run(readerMutateProg)
			return err
		},
	}
	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			err := run()
			var nd *ErrNondeterminism
			if !errors.As(err, &nd) {
				t.Fatalf("err = %v, want ErrNondeterminism", err)
			}
			if nd.Pid != 1 {
				t.Errorf("violation at pid %d, want 1 (%v)", nd.Pid, nd)
			}
		})
	}
}

func TestVerifyCleanProgramPassesBothEngines(t *testing.T) {
	tr := model.UCFTestbedN(4)
	prog := func(c Ctx) error {
		for r := 0; r < 3; r++ {
			payload := []byte{byte(c.Pid()), byte(r)}
			if err := c.Send((c.Pid()+1)%c.NProcs(), r, payload); err != nil {
				return err
			}
			if err := SyncAll(c, fmt.Sprintf("r%d", r)); err != nil {
				return err
			}
			sum := 0
			for _, m := range c.Moves() {
				sum += int(m.Payload[0])
			}
			c.Save("sum", []byte{byte(sum)})
		}
		return nil
	}
	veng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	veng.Verify = true
	if _, err := veng.Run(prog); err != nil {
		t.Errorf("virtual: %v", err)
	}
	ceng := NewConcurrent(tr)
	ceng.Verify = true
	if _, err := ceng.Run(prog); err != nil {
		t.Errorf("concurrent: %v", err)
	}
}

// The happens-before branch of checkDelivery cannot fire through a
// well-formed engine run (every delivery crosses a barrier join), so
// the clock algebra is pinned down directly.
func TestVClockDominanceAndJoin(t *testing.T) {
	a, b := newVClock(3), newVClock(3)
	a.tick(0)
	b.tick(1)
	if a.dominates(b) || b.dominates(a) {
		t.Fatalf("concurrent clocks %v %v must not dominate each other", a, b)
	}
	j := a.clone()
	j.join(b)
	if !j.dominates(a) || !j.dominates(b) {
		t.Fatalf("join %v must dominate both inputs", j)
	}
	rt := decodeVClock(j.encodeInt64())
	if !rt.dominates(j) || !j.dominates(rt) {
		t.Fatalf("encode/decode round trip changed the clock: %v vs %v", j, rt)
	}
}

func TestCheckDeliveryFlagsMissingBarrierEdge(t *testing.T) {
	reader := VClock{2, 0, 0}
	stamp := VClock{0, 0, 4} // sender events the reader has never joined
	e := checkDelivery(0, 3, Message{Src: 2, Tag: 1}, msgMeta{src: 2, tag: 1, stamp: stamp, sum: payloadSum(nil)}, reader)
	if e == nil {
		t.Fatal("undominated stamp not flagged")
	}
	if e.Pid != 0 || e.Step != 3 || e.Src != 2 {
		t.Errorf("violation = %+v, want pid 0 step 3 src 2", e)
	}
}

// orderedPayload encodes v for the exploration programs.
func orderedPayload(v int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}

// commutativeFoldProg is order-independent: every processor sends its
// pid to the root, which folds with addition and saves the total.
func commutativeFoldProg(c Ctx) error {
	if c.Pid() != 0 {
		if err := c.Send(0, 0, orderedPayload(int64(c.Pid()+1))); err != nil {
			return err
		}
	}
	if err := SyncAll(c, "gather"); err != nil {
		return err
	}
	if c.Pid() == 0 {
		total := int64(0)
		for _, m := range c.Moves() {
			total += int64(binary.BigEndian.Uint64(m.Payload))
		}
		c.Save("total", orderedPayload(total))
	}
	return SyncAll(c, "close")
}

// orderDependentFoldProg subtracts in Moves order — its result depends
// on delivery order, exactly what exploration must expose.
func orderDependentFoldProg(c Ctx) error {
	if c.Pid() != 0 {
		if err := c.Send(0, 0, orderedPayload(int64(c.Pid()*7+1))); err != nil {
			return err
		}
	}
	if err := SyncAll(c, "gather"); err != nil {
		return err
	}
	if c.Pid() == 0 {
		total := int64(1000)
		for _, m := range c.Moves() {
			total = total*3 - int64(binary.BigEndian.Uint64(m.Payload))
		}
		c.Save("total", orderedPayload(total))
	}
	return SyncAll(c, "close")
}

func TestRunSchedulesAgreeOnCommutativeFold(t *testing.T) {
	tr := model.UCFTestbedN(6)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	set, err := eng.RunSchedules(commutativeFoldProg, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Runs {
		if r.Err != nil {
			t.Fatalf("perm %d: %v", r.Perm, r.Err)
		}
	}
	if !set.Agree() {
		t.Errorf("commutative fold diverged: %s", set.Diff())
	}
}

func TestRunSchedulesDiffOrderDependentFold(t *testing.T) {
	tr := model.UCFTestbedN(6)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	set, err := eng.RunSchedules(orderDependentFoldProg, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if set.Agree() {
		t.Fatal("order-dependent fold fingerprinted identically under permuted schedules")
	}
	diff := set.Diff()
	if diff == "" {
		t.Fatal("divergent set produced an empty diff")
	}
	if want := `p0 saved state "total"`; !containsStr(diff, want) {
		t.Errorf("diff %q does not name the divergent save %q", diff, want)
	}
}

func TestRunSchedulesDeterministicReplay(t *testing.T) {
	tr := model.UCFTestbedN(5)
	eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
	a, err := eng.RunSchedules(orderDependentFoldProg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.RunSchedules(orderDependentFoldProg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Fingerprint != b.Runs[i].Fingerprint {
			t.Errorf("perm %d not reproducible: %016x vs %016x",
				i, a.Runs[i].Fingerprint, b.Runs[i].Fingerprint)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
