// Package fabric charges communication and synchronization costs to
// HBSP^k supersteps. It is the "wire" of the simulated heterogeneous
// machine: given the flows and local work of one super^i-step it
// produces the step's execution time.
//
// The default configuration charges exactly the paper's cost model,
// T_i(λ) = w_i + g·h + L_{i,j} with the heterogeneous h-relation of
// package cost. On top of that the fabric can model an effect the pure
// model abstracts away and the experimental section needs: PVM-style
// per-byte pack/unpack overheads, charged as local work to the
// sender/receiver and scaled by that machine's compute slowdown.
// Packing (XDR encoding on the send path) is more expensive than
// unpacking; this asymmetry is what makes the paper's Figure 3(a) show
// T_s/T_f < 1 at p = 2 (§5.2's counter-intuitive result).
//
// A multiplicative noise knob models the paper's non-dedicated cluster.
package fabric

import (
	"math/rand"

	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// Config selects which effects the fabric models beyond the pure
// HBSP^k cost model. The zero value is the pure model.
type Config struct {
	// PackByte is the send-side overhead per byte (PVM pack/XDR
	// encode), in fastest-machine time units; it is scaled by the
	// sending machine's compute slowdown.
	PackByte float64
	// UnpackByte is the receive-side overhead per byte, scaled by the
	// receiving machine's compute slowdown. PVM's receive path is
	// cheaper than its send path, so UnpackByte < PackByte in the PVM
	// preset.
	UnpackByte float64
	// Noise, when positive, multiplies each step time by a uniformly
	// drawn factor in [1, 1+Noise): background load on a non-dedicated
	// cluster only ever slows a step down.
	Noise float64
	// Seed seeds the noise generator; runs with equal seeds are
	// identical.
	Seed int64
	// MsgOverhead is a fixed per-message cost charged to the sender's
	// local work (scaled by its compute slowdown), modeling PVM's
	// per-message routing/daemon latency. It penalizes algorithms that
	// send many small messages — the effect message aggregation and
	// the related work's segmentation tuning trade against.
	MsgOverhead float64
	// CombineMessages merges all of a superstep's messages between the
	// same (source, destination) pair into one wire message for cost
	// purposes — the classic BSPlib message-combining optimization.
	// Delivery is unaffected; only the per-message overhead count
	// changes, so it matters exactly when MsgOverhead > 0.
	CombineMessages bool
	// Rates optionally extends r_{i,j} with per-destination factors
	// (the paper's §6 future work); see model.RateTable.
	Rates *model.RateTable
}

// PureModel is the configuration that charges exactly T = w + g·h + L.
func PureModel() Config { return Config{} }

// PVM mimics the paper's HBSPlib-on-PVM testbed: packing costs 0.15
// byte-times per byte on the fastest machine and unpacking half that, in
// line with XDR encode dominating the send path while both stay well
// below the wire time (the experiments of §5 are communication-bound).
func PVM() Config { return Config{PackByte: 0.15, UnpackByte: 0.075} }

// Fabric charges superstep costs for one machine tree. It is not for
// concurrent use: the noise stream is drawn in call order, and the one
// caller per run, the virtual engine's coordinator, charges steps one at
// a time — which is what makes equal seeds give equal runs.
type Fabric struct {
	tree *model.Tree
	cfg  Config
	rng  *rand.Rand
	over []float64 // StepCost's per-pid scratch
}

// New returns a fabric for the tree with the given configuration.
func New(t *model.Tree, cfg Config) *Fabric {
	return &Fabric{tree: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// StepCost charges one super^i-step — flows are the messages delivered
// at its end, work[pid] each participant's computation in fastest-machine
// units — as cost.Terms with what the pure model lacks: combining, pack,
// unpack and per-message overheads added to the endpoints' work, rates,
// and noise on the step's time.
func (f *Fabric) StepCost(scope *model.Machine, flows []cost.Flow, work []float64) (trace.Shape, float64) {
	if f.cfg.CombineMessages {
		flows = combine(flows)
	}
	if f.cfg.PackByte > 0 || f.cfg.MsgOverhead > 0 || f.cfg.UnpackByte > 0 {
		work = f.withOverheads(flows, work)
	}
	s, time := cost.Terms(f.tree, scope, flows, work, f.cfg.Rates)
	if f.cfg.Noise > 0 {
		time *= 1 + f.cfg.Noise*f.rng.Float64()
	}
	return s, time
}

// combine collapses same-(src, dst) flows into one, in first-seen order.
func combine(flows []cost.Flow) []cost.Flow {
	type pair struct{ src, dst int }
	merged := make(map[pair]int)
	var order []pair
	for _, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes <= 0 {
			continue
		}
		k := pair{fl.Src, fl.Dst}
		if _, ok := merged[k]; !ok {
			order = append(order, k)
		}
		merged[k] += fl.Bytes
	}
	combined := make([]cost.Flow, 0, len(order))
	for _, k := range order {
		combined = append(combined, cost.Flow{Src: k.src, Dst: k.dst, Bytes: merged[k]})
	}
	return combined
}

// withOverheads returns each pid's work plus its flows' pack, unpack and
// per-message overheads, scaled by its compute slowdown.
func (f *Fabric) withOverheads(flows []cost.Flow, work []float64) []float64 {
	n := f.tree.NProcs()
	if len(f.over) < n {
		f.over = make([]float64, n)
	}
	over := f.over[:n]
	clear(over)
	for _, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes <= 0 {
			continue
		}
		if src := f.tree.Leaf(fl.Src); src != nil {
			over[fl.Src] += (f.cfg.PackByte*float64(fl.Bytes) + f.cfg.MsgOverhead) * src.CompSlowdown
		}
		if dst := f.tree.Leaf(fl.Dst); dst != nil {
			over[fl.Dst] += f.cfg.UnpackByte * float64(fl.Bytes) * dst.CompSlowdown
		}
	}
	for pid, w := range work {
		over[pid] += w
	}
	return over
}
