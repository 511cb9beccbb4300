package model

import "fmt"

// RateTable is the paper's stated future-work extension (§6): "we plan
// to investigate extending the r_{i,j} parameter to accommodate
// communication costs incurred by M_{i,j} as a result of sending data to
// various destinations." A RateTable overlays multiplicative
// per-(source, destination) factors on top of the scalar r_{i,j}: the
// effective injection slowdown of machine S sending to machine D is
// r_S · Factor(S, D).
//
// Factors are keyed by machine name at the charging entity level (the
// leaf, cluster, or step-root the h-relation charges), so a single entry
// "clusterA" → "clusterB" prices the whole inter-cluster path. Lookups
// fall back to the wildcard "*" on either side, then to 1.
type RateTable struct {
	factors map[rateKey]float64
}

type rateKey struct{ src, dst string }

// NewRateTable returns an empty table (every factor 1).
func NewRateTable() *RateTable {
	return &RateTable{factors: make(map[rateKey]float64)}
}

// Set installs the factor for traffic from the machine named src to the
// machine named dst. Either may be "*". Factors must be positive.
func (rt *RateTable) Set(src, dst string, factor float64) *RateTable {
	if factor <= 0 {
		panic(fmt.Sprintf("model: rate factor %v for %s→%s must be positive", factor, src, dst))
	}
	rt.factors[rateKey{src, dst}] = factor
	return rt
}

// Factor returns the multiplicative slowdown for src→dst traffic.
// Because the h-relation charges a step's hub as the scope machine
// itself, a charged entity answers to two names: its own and — for
// clusters — its coordinator leaf's, so that users can key entries by
// the machines they actually named. Precedence: exact pair, src→*,
// *→dst (own names before coordinator fallbacks), then 1.
func (rt *RateTable) Factor(src, dst *Machine) float64 {
	if rt == nil || src == nil || dst == nil {
		return 1
	}
	srcNames := entityNames(src)
	dstNames := entityNames(dst)
	for _, s := range srcNames {
		for _, d := range dstNames {
			if f, ok := rt.factors[rateKey{s, d}]; ok {
				return f
			}
		}
	}
	for _, s := range srcNames {
		if f, ok := rt.factors[rateKey{s, "*"}]; ok {
			return f
		}
	}
	for _, d := range dstNames {
		if f, ok := rt.factors[rateKey{"*", d}]; ok {
			return f
		}
	}
	return 1
}

func entityNames(m *Machine) []string {
	if m.IsLeaf() {
		return []string{m.Name}
	}
	// A cluster entity answers to its own name and to every machine on
	// the path from its coordinator leaf up to (but excluding) itself:
	// the hub of a super^i-step physically sits inside one of its child
	// clusters, and users naturally key rate entries by that child.
	names := []string{m.Name}
	co := m.Coordinator()
	var chain []string
	for x := co; x != nil && x != m; x = x.Parent() {
		chain = append(chain, x.Name)
	}
	// Outer-first after the entity's own name: clusterA before its leaf.
	for i := len(chain) - 1; i >= 0; i-- {
		names = append(names, chain[i])
	}
	return names
}
