package hbsp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// The two engines implement the same programming model; these property
// tests drive both with randomized message schedules and require
// identical delivered data.

// randomSchedule builds a deterministic per-processor message plan:
// rounds × destinations × sizes derived from the seed, shared by both
// engines.
type schedItem struct {
	dst, tag, size int
}

func buildSchedule(seed int64, p, rounds int) [][][]schedItem {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][][]schedItem, p)
	for pid := 0; pid < p; pid++ {
		plan[pid] = make([][]schedItem, rounds)
		for r := 0; r < rounds; r++ {
			count := rng.Intn(4)
			for m := 0; m < count; m++ {
				plan[pid][r] = append(plan[pid][r], schedItem{
					dst:  rng.Intn(p),
					tag:  rng.Intn(8),
					size: 1 + rng.Intn(64),
				})
			}
		}
	}
	return plan
}

// runSchedule executes the plan and returns a digest per processor: the
// concatenation of (src, tag, payload-head) of every delivered message
// in Moves order across rounds.
func runSchedule(t *testing.T, tr *model.Tree, plan [][][]schedItem,
	run func(Program) error) [][]byte {
	t.Helper()
	p := tr.NProcs()
	digests := make([][]byte, p)
	err := run(func(c Ctx) error {
		var digest []byte
		for r := range plan[c.Pid()] { //hbspk:ignore pidtaint (every pid's plan has the same round count by construction)
			for mi, item := range plan[c.Pid()][r] {
				payload := bytes.Repeat([]byte{byte(c.Pid()*17 + r*3 + mi)}, item.size)
				if err := c.Send(item.dst, item.tag, payload); err != nil {
					return err
				}
			}
			// On a multi-level tree the round has two steps: sibling
			// clusters first, delivering what stays inside one, then the
			// machine.
			if c.Tree().K() > 1 {
				if err := c.Sync(c.Tree().ScopeAt(c.Self(), 1), fmt.Sprintf("round%d local", r)); err != nil {
					return err
				}
				digest = digestMoves(digest, c.Moves())
			}
			if err := SyncAll(c, fmt.Sprintf("round%d", r)); err != nil { // plans give every pid the same round count
				return err
			}
			digest = digestMoves(digest, c.Moves())
		}
		digests[c.Pid()] = digest
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests
}

func digestMoves(digest []byte, moves []Message) []byte {
	for _, m := range moves {
		digest = append(digest, byte(m.Src), byte(m.Tag), byte(len(m.Payload)), m.Payload[0])
	}
	return digest
}

func TestPropertyEnginesDeliverIdentically(t *testing.T) {
	f := func(seed int64, pRaw, roundsRaw uint8) bool {
		p := int(pRaw%6) + 2
		rounds := int(roundsRaw%4) + 1
		tr := model.UCFTestbedN(p)
		plan := buildSchedule(seed, p, rounds)
		virt := runSchedule(t, tr, plan, func(prog Program) error {
			_, err := RunVirtual(tr, fabric.PureModel(), prog)
			return err
		})
		conc := runSchedule(t, tr, plan, func(prog Program) error {
			_, err := NewConcurrent(tr).Run(prog)
			return err
		})
		for pid := range virt {
			if !bytes.Equal(virt[pid], conc[pid]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// permCollectives are minimal gather/bcast/reduce shapes (the package
// cannot import internal/collective without a cycle); each program
// writes pid's final observation into digests[pid] and Saves it so
// schedule fingerprints cover the result.
func permCollectives(root int, digests [][]byte) map[string]Program {
	finish := func(c Ctx, digest []byte) error {
		digests[c.Pid()] = digest
		c.Save("out", digest)
		return nil
	}
	return map[string]Program{
		"gather": func(c Ctx) error {
			if c.Pid() != root {
				if err := c.Send(root, 1, []byte{byte(c.Pid()), byte(c.Pid() * 3)}); err != nil {
					return err
				}
			}
			if err := SyncAll(c, "gather"); err != nil {
				return err
			}
			// Key by source like the real collectives do: exploration
			// shuffles Moves order on purpose, so concatenating in
			// arrival order would (correctly) be flagged as
			// schedule-dependent.
			bySrc := make(map[int][]byte)
			for _, m := range c.Moves() {
				bySrc[m.Src] = m.Payload
			}
			var digest []byte
			for src := 0; src < c.NProcs(); src++ {
				if p, ok := bySrc[src]; ok {
					digest = append(digest, byte(src), p[0], p[1])
				}
			}
			return finish(c, digest)
		},
		"gather-hier": func(c Ctx) error {
			// Two hops: to the cluster's first pid on the cluster scope
			// (sibling clusters step side by side), then to root.
			cluster := c.Tree().ScopeAt(c.Self(), 1)
			head := cluster.Pids()[0]
			if c.Pid() != head {
				if err := c.Send(head, 4, []byte{byte(c.Pid()), byte(c.Pid() * 5)}); err != nil {
					return err
				}
			}
			if err := c.Sync(cluster, "gather^1"); err != nil {
				return err
			}
			if c.Pid() == head {
				bundle := make([]byte, 2*c.NProcs())
				bundle[2*head], bundle[2*head+1] = byte(head), byte(head*5)
				for _, m := range c.Moves() {
					copy(bundle[2*m.Src:], m.Payload)
				}
				if err := c.Send(root, 5, bundle); err != nil {
					return err
				}
			}
			if err := SyncAll(c, "gather^2"); err != nil {
				return err
			}
			digest := make([]byte, 2*c.NProcs())
			for _, m := range c.Moves() {
				for i, b := range m.Payload {
					digest[i] |= b
				}
			}
			return finish(c, digest)
		},
		"bcast": func(c Ctx) error {
			if c.Pid() == root {
				for dst := 0; dst < c.NProcs(); dst++ {
					if dst == root {
						continue
					}
					if err := c.Send(dst, 2, []byte{0xB0, byte(dst)}); err != nil {
						return err
					}
				}
			}
			if err := SyncAll(c, "bcast"); err != nil {
				return err
			}
			var digest []byte
			for _, m := range c.Moves() {
				digest = append(digest, byte(m.Src), m.Payload[0], m.Payload[1])
			}
			return finish(c, digest)
		},
		"reduce": func(c Ctx) error {
			if c.Pid() != root {
				if err := c.Send(root, 3, []byte{byte(c.Pid() + 1)}); err != nil {
					return err
				}
			}
			if err := SyncAll(c, "reduce"); err != nil {
				return err
			}
			var digest []byte
			if c.Pid() == root {
				sum := 0
				for _, m := range c.Moves() {
					sum += int(m.Payload[0])
				}
				digest = []byte{byte(sum)}
			}
			return finish(c, digest)
		},
	}
}

// The satellite equivalence bar: every mini-collective must produce the
// same final state on the Virtual engine under 8 seeded delivery-order
// permutations AND on the Concurrent engine, with verification armed on
// both.
func TestEnginesAgreeUnderSchedulePermutations(t *testing.T) {
	trees := []struct {
		prefix string
		tree   *model.Tree
	}{{"", model.UCFTestbedN(6)}, {"grid/", model.WideAreaGrid(2, 3, 10, 10, 100)}}
	for _, nt := range trees {
		prefix, tr := nt.prefix, nt.tree
		root := tr.Pid(tr.FastestLeaf())
		p := tr.NProcs()
		for _, name := range []string{"gather", "gather-hier", "bcast", "reduce"} {
			t.Run(prefix+name, func(t *testing.T) {
				virt := make([][]byte, p)
				veng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
				veng.Verify = true
				set, err := veng.RunSchedules(permCollectives(root, virt)[name], 8, 2024)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range set.Runs {
					if r.Err != nil {
						t.Fatalf("perm %d: %v", r.Perm, r.Err)
					}
				}
				if !set.Agree() {
					t.Fatalf("virtual engine schedule-dependent: %s", set.Diff())
				}
				conc := make([][]byte, p)
				ceng := NewConcurrent(tr)
				ceng.Verify = true
				if _, err := ceng.Run(permCollectives(root, conc)[name]); err != nil {
					t.Fatal(err)
				}
				for pid := 0; pid < p; pid++ {
					if !bytes.Equal(virt[pid], conc[pid]) {
						t.Errorf("p%d: virtual %x vs concurrent %x", pid, virt[pid], conc[pid])
					}
				}
			})
		}
	}
}

func TestPropertyVirtualDeterministicOverSchedules(t *testing.T) {
	f := func(seed int64, grid bool) bool {
		tr := model.UCFTestbedN(5)
		if grid {
			tr = model.WideAreaGrid(2, 3, 10, 10, 100)
		}
		plan := buildSchedule(seed, tr.NProcs(), 3)
		// A run is its delivered data and its step record.
		run := func() ([][]byte, []byte) {
			var report bytes.Buffer
			digests := runSchedule(t, tr, plan, func(prog Program) error {
				rep, err := RunVirtual(tr, fabric.PVM(), prog)
				if err == nil {
					err = rep.WriteJSON(&report)
				}
				return err
			})
			return digests, report.Bytes()
		}
		a, repA := run()
		b, repB := run()
		for pid := range a {
			if !bytes.Equal(a[pid], b[pid]) {
				return false
			}
		}
		return bytes.Equal(repA, repB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEnginesAgreeOnTheTagRange: a tag is an int32 on both engines.
// Each edge of the range arrives as sent, and a tag past it is refused
// with the same error on both.
func TestEnginesAgreeOnTheTagRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int is 32 bits wide: every tag is in range")
	}
	tr := model.UCFTestbedN(2)
	var wide int64 = 1<<32 + 5
	outside := int(wide)
	run := func(name string, eng func(Program) error) {
		var got []int
		var refused error
		if err := eng(func(c Ctx) error {
			if c.Pid() == 0 {
				for _, tag := range []int{math.MinInt32, math.MaxInt32} {
					if err := c.Send(1, tag, []byte{1}); err != nil {
						return err
					}
				}
				refused = c.Send(1, outside, []byte{1})
			}
			if err := SyncAll(c, "tags"); err != nil {
				return err
			}
			if c.Pid() == 1 {
				for _, m := range c.Moves() {
					got = append(got, m.Tag)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := []int{math.MinInt32, math.MaxInt32}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: tags %v delivered, want %v", name, got, want)
		}
		if want := fmt.Sprintf("hbsp: send with tag %d, outside the int32 range", outside); refused == nil || refused.Error() != want {
			t.Errorf("%s: a tag past the int32 range: error %v, want %q", name, refused, want)
		}
	}
	run("virtual", func(p Program) error {
		_, err := RunVirtual(tr, fabric.PureModel(), p)
		return err
	})
	run("concurrent", func(p Program) error {
		_, err := NewConcurrent(tr).Run(p)
		return err
	})
}
