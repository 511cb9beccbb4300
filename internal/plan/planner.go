// Package plan implements the auto-tuned collective planner of
// DESIGN.md §5.9: per (machine-tree fingerprint, collective family,
// payload-size bucket) it selects the cheapest variant from the
// closed-form cost table once and memoizes the pick. Nothing is
// corrected at run time — the model decides, as in the Barchet-Estefanel
// & Mounié program of model-predicted algorithm switchpoints.
//
// Concurrency contract. Decide is safe from any number of SPMD
// processors at once; the cached hit path is a fingerprint read plus one
// lock-free sync.Map load. A pick is a pure function of its key, and
// racing processors agree on the single stored winner via LoadOrStore,
// so every processor of one collective invocation sees the same decision
// and the supersteps stay aligned. A reorganized tree has a different
// fingerprint and therefore gets its own picks; no stored pick is ever
// changed or evicted.
package plan

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"hbspk/internal/model"
)

// Bucket returns the log₂ payload-size bucket of n total bytes: sizes
// within a factor of two share a bucket, matching how coarsely the
// closed forms separate variants. Decisions are keyed by bucket, never
// by exact size, so the cache stays small and a pick is a pure function
// of (fingerprint, family, bucket).
func Bucket(n int) uint8 {
	if n < 1 {
		n = 1
	}
	return uint8(bits.Len(uint(n)))
}

// BucketRep returns the representative size the closed forms are
// evaluated at for a bucket — its geometric middle, 1.5·2^(b-1) — so
// the decision does not depend on which size inside the bucket arrived
// first.
func BucketRep(b uint8) int {
	if b <= 1 {
		return 1
	}
	return 3 << (b - 2)
}

// dkey identifies one cached decision.
type dkey struct {
	fp     uint64
	family string
	bucket uint8
}

// Decision is one planner pick: the variant to dispatch for a
// (fingerprint, family, bucket) triple, with the model cost that
// justified it.
type Decision struct {
	// Variant is the winning table entry.
	Variant CostVariant
	// Bucket and Rep record the size bucket and the representative size
	// the closed forms were evaluated at.
	Bucket uint8
	Rep    int
	// Pred is Variant's closed-form cost at Rep.
	Pred float64
	// Fresh is set only in the copy returned to the single caller whose
	// Decide populated the cache — the dispatcher records the pick
	// event exactly once per decision.
	Fresh bool
}

// Stats is a snapshot of the planner's counters: Decide calls served
// from the cache (Hits) versus priced from the closed forms (Misses).
type Stats struct {
	Hits, Misses int64
}

// Planner is the auto-tuning decision cache. It holds at most one entry
// per family × bucket for each tree fingerprint it is asked about.
// Construct with New.
type Planner struct {
	cache        sync.Map // dkey -> *Decision
	hits, misses atomic.Int64
}

// New returns an empty Planner.
func New() *Planner { return &Planner{} }

// Decide returns the variant to dispatch for moving n total bytes
// through the family's collective on t: the family's cheapest closed
// form at the bucket-representative size, priced once per key. On a
// miss every racing processor prices the same candidate and LoadOrStore
// guarantees they all return the single stored winner, so an SPMD
// program's processors can never disagree on the pick. ok is false for
// an unknown family.
func (p *Planner) Decide(t *model.Tree, family string, n int) (Decision, bool) {
	k := dkey{t.Fingerprint(), family, Bucket(n)}
	if v, ok := p.cache.Load(k); ok {
		p.hits.Add(1)
		return *v.(*Decision), true
	}
	rep := BucketRep(k.bucket)
	best, at, ok := BestVariant(t, family, rep)
	if !ok {
		return Decision{}, false
	}
	actual, loaded := p.cache.LoadOrStore(k, &Decision{Variant: best, Bucket: k.bucket, Rep: rep, Pred: at})
	out := *actual.(*Decision)
	if loaded {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		out.Fresh = true
	}
	return out, true
}

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() Stats {
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}

// CachedDecision is one row of the Decisions dump.
type CachedDecision struct {
	FP      uint64
	Family  string
	Bucket  uint8
	Rep     int
	Variant string
	Pred    float64
}

// Decisions snapshots the decision cache, sorted by (family, bucket,
// fingerprint) for deterministic display — the table `hbspk-sim
// -collective auto` prints.
func (p *Planner) Decisions() []CachedDecision {
	var out []CachedDecision
	p.cache.Range(func(k, v any) bool {
		dk, d := k.(dkey), v.(*Decision)
		out = append(out, CachedDecision{
			FP: dk.fp, Family: dk.family, Bucket: dk.bucket,
			Rep: d.Rep, Variant: d.Variant.Name, Pred: d.Pred,
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return a.FP < b.FP
	})
	return out
}

// String renders the row for the sim's pick report.
func (d CachedDecision) String() string {
	return fmt.Sprintf("%-10s bucket %2d (rep %8d B) -> %-18s pred %.1f [tree %016x]",
		d.Family, d.Bucket, d.Rep, d.Variant, d.Pred, d.FP)
}
