// Package bytemark ranks the processors of a machine tree the way the
// paper's experimental section does with BYTE Magazine's BYTEmark
// (reference [16]): "The ranking of processors is determined by the
// BYTEmark benchmark, which consists of tests such as sorting,
// floating-point manipulation, and numerical analysis."
//
// The measurement is simulated: no kernel runs. Each leaf's index on
// each of the original's ten tests is its declared compute speed,
// 1/CompSlowdown, times a seeded per-kernel measurement error, and the
// composite is the geometric mean over the ten. The error is what
// matters: it is the imperfect estimate that drives the paper's
// Figure 3(b) result, where the second fastest processor's c_j is
// overestimated.
package bytemark

import (
	"math"
	"math/rand"
	"sort"

	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// kernelNames are the original suite's ten tests, in report order; each
// weighs the same in the composite.
var kernelNames = [...]string{
	"numeric-sort", "string-sort", "bitfield", "fp-emulation", "fourier",
	"assignment", "idea", "huffman", "neural-net", "lu-decomposition",
}

// Index is one machine's measured composite score relative to the best
// machine, BYTEmark-style (larger is faster). Because measurement is
// noisy, Index is an imperfect estimate of 1/CompSlowdown — the
// imperfection the paper observes when the second fastest processor's
// c_j comes out too large.
type Index struct {
	Machine   *model.Machine
	Composite float64
	PerKernel map[string]float64
}

// Suite is one simulated measurement of a machine tree.
type Suite struct {
	// NoiseAmp is the relative amplitude of per-kernel measurement
	// error, modeling a non-dedicated machine; 0 measures exactly.
	NoiseAmp float64
	// Seed makes measurement errors reproducible.
	Seed int64
}

// DefaultSuite mirrors the paper's setup: a few percent of measurement
// noise from the non-dedicated cluster.
func DefaultSuite(seed int64) Suite { return Suite{NoiseAmp: 0.08, Seed: seed} }

// Measure scores every leaf of the tree: each kernel's index is
// 1/(CompSlowdown·noise), with noise drawn uniformly from
// [1-NoiseAmp, 1+NoiseAmp], one draw per leaf per kernel in leaf then
// kernel order. The composite is the geometric mean over kernels,
// normalized so the best machine scores 1.
func (s Suite) Measure(t *model.Tree) []Index {
	rng := rand.New(rand.NewSource(s.Seed))
	leaves := t.Leaves()
	out := make([]Index, len(leaves))
	for li, leaf := range leaves {
		per := make(map[string]float64, len(kernelNames))
		logSum := 0.0
		for _, name := range kernelNames {
			noise := 1.0
			if s.NoiseAmp > 0 {
				noise = 1 + s.NoiseAmp*(rng.Float64()*2-1)
			}
			index := 1 / (leaf.CompSlowdown * noise)
			per[name] = index
			logSum += math.Log(index)
		}
		out[li] = Index{Machine: leaf, Composite: math.Exp(logSum / float64(len(kernelNames))), PerKernel: per}
	}
	best := 0.0
	for _, ix := range out {
		if ix.Composite > best {
			best = ix.Composite
		}
	}
	for i := range out {
		out[i].Composite /= best
		for k := range out[i].PerKernel {
			out[i].PerKernel[k] /= best
		}
	}
	return out
}

// Ranking orders the indices fastest-first.
func Ranking(ixs []Index) []Index {
	out := append([]Index(nil), ixs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Composite > out[j].Composite })
	return out
}

// ApplyShares overwrites the tree's c_{i,j} from measured indices:
// leaf shares proportional to the composite score (the faster the
// machine looks, the more data it receives), renormalized by
// Tree.Normalize. This is the paper's balanced-workload estimation: "c_i
// is computed using the BYTEmark results" (§5.1) — including its error.
func ApplyShares(t *model.Tree, ixs []Index) {
	total := 0.0
	for _, ix := range ixs {
		total += ix.Composite
	}
	for _, ix := range ixs {
		ix.Machine.Share = ix.Composite / total
	}
	t.Normalize()
}

// Table renders the measured indices as a ranking table.
func Table(ixs []Index) *trace.Table {
	tb := trace.NewTable("BYTEmark ranking", "rank", "machine", "index", "true slowdown")
	for rank, ix := range Ranking(ixs) {
		tb.AddF(rank, ix.Machine.Name, ix.Composite, ix.Machine.CompSlowdown)
	}
	return tb
}

// KernelTable renders the per-kernel indices of every machine — the
// full BYTEmark report card, one row per machine, one column per
// kernel, ordered fastest-first.
func KernelTable(ixs []Index) *trace.Table {
	header := append([]string{"machine", "composite"}, kernelNames[:]...)
	tb := trace.NewTable("BYTEmark per-kernel indices", header...)
	for _, ix := range Ranking(ixs) {
		row := []interface{}{ix.Machine.Name, ix.Composite}
		for _, name := range kernelNames {
			row = append(row, ix.PerKernel[name])
		}
		tb.AddF(row...)
	}
	return tb
}
