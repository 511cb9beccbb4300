package plan

import (
	"sync"
	"testing"

	"hbspk/internal/model"
)

func TestBucketAndRep(t *testing.T) {
	cases := []struct {
		n   int
		b   uint8
		rep int
	}{
		{0, 1, 1}, {1, 1, 1}, {2, 2, 3}, {3, 2, 3}, {4, 3, 6},
		{1023, 10, 768}, {1024, 11, 1536}, {1 << 20, 21, 3 << 19},
	}
	for _, c := range cases {
		if got := Bucket(c.n); got != c.b {
			t.Errorf("Bucket(%d) = %d, want %d", c.n, got, c.b)
		}
		if got := BucketRep(c.b); got != c.rep {
			t.Errorf("BucketRep(%d) = %d, want %d", c.b, got, c.rep)
		}
		// The representative must live in its own bucket, or decisions
		// would be priced for a size the bucket never sees.
		if Bucket(BucketRep(c.b)) != c.b {
			t.Errorf("BucketRep(%d)=%d falls in bucket %d", c.b, BucketRep(c.b), Bucket(BucketRep(c.b)))
		}
	}
}

// The planner must agree with the static closed-form ranking at the
// bucket-representative size — the planner and the analyzers share one
// table, so a disagreement means the decision path corrupted the
// pricing.
func TestDecideMatchesBestVariantUncorrected(t *testing.T) {
	p := New()
	tr := model.UCFTestbed()
	for _, family := range []string{"bcast", "gather", "scatter", "allgather", "reduce", "allreduce", "scan", "alltoall"} {
		for _, n := range []int{64, 4096, 1 << 16, 1 << 20} {
			d, ok := p.Decide(tr, family, n)
			if !ok {
				t.Fatalf("Decide(%s, %d): unknown family", family, n)
			}
			want, cost, bok := BestVariant(tr, family, BucketRep(Bucket(n)))
			if !bok {
				t.Fatalf("BestVariant(%s): unknown family", family)
			}
			if d.Variant.Name != want.Name {
				t.Errorf("Decide(%s, %d) = %s, BestVariant at rep = %s", family, n, d.Variant.Name, want.Name)
			}
			if d.Pred != cost {
				t.Errorf("Decide(%s, %d) pred %g, closed form %g", family, n, d.Pred, cost)
			}
		}
	}
	if _, ok := p.Decide(tr, "no-such-family", 64); ok {
		t.Fatalf("Decide accepted an unknown family")
	}
}

func TestDecideHitPathAndFresh(t *testing.T) {
	p := New()
	tr := model.UCFTestbed()
	d1, _ := p.Decide(tr, "bcast", 4096)
	if !d1.Fresh {
		t.Fatalf("first Decide not Fresh")
	}
	// Same bucket (4096 and 5000 share log2 bucket 13) must hit.
	d2, _ := p.Decide(tr, "bcast", 5000)
	if d2.Fresh {
		t.Fatalf("bucket-sharing Decide was Fresh; cache missed")
	}
	if d2.Variant.Name != d1.Variant.Name {
		t.Fatalf("bucket-sharing Decide changed variant")
	}
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", s)
	}
}

// Concurrent Decide from many goroutines (run under -race): every
// caller must resolve the same variant, and exactly one of them may
// price it.
func TestConcurrentDecideAgreement(t *testing.T) {
	p := New()
	tr := model.UCFTestbed()
	const procs = 16
	const rounds = 8
	const n = 1 << 14

	var wg sync.WaitGroup
	picks := make([]string, procs*rounds)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d, ok := p.Decide(tr, "bcast", n)
				if !ok {
					t.Error("Decide failed")
					return
				}
				picks[i*rounds+r] = d.Variant.Name
			}
		}(i)
	}
	wg.Wait()
	for i, pick := range picks {
		if pick != picks[0] {
			t.Fatalf("call %d picked %s, call 0 picked %s", i, pick, picks[0])
		}
	}
	if s := p.Stats(); s.Misses != 1 || s.Hits != procs*rounds-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, procs*rounds-1)
	}
}
