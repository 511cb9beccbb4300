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
	"sort"

	"hbspk/internal/cost"
	"hbspk/internal/model"
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
	// CheckpointByte is the cost of snapshotting one byte of registered
	// state at a checkpointed superstep boundary, in fastest-machine
	// time units; it is scaled by the checkpointing machine's compute
	// slowdown and charged when an engine commits a checkpoint, so the
	// analytic predictions stay honest about recovery overhead.
	CheckpointByte float64
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

// PVMNoisy is PVM on a non-dedicated cluster.
func PVMNoisy(noise float64, seed int64) Config {
	c := PVM()
	c.Noise = noise
	c.Seed = seed
	return c
}

// Fabric charges superstep costs for one machine tree. It is not for
// concurrent use: the noise stream is drawn in call order, and the one
// caller per run, the virtual engine's coordinator, charges steps one at
// a time — which is what makes equal seeds give equal runs.
type Fabric struct {
	tree *model.Tree
	cfg  Config
	rng  *rand.Rand
}

// New returns a fabric for the tree with the given configuration.
func New(t *model.Tree, cfg Config) *Fabric {
	return &Fabric{tree: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// StepResult is the charged cost of one executed super^i-step.
type StepResult struct {
	// W is w_i including pack/unpack overheads; H the heterogeneous
	// h-relation; Comm the charged communication time g·H; Sync is L.
	W, H, Comm, Sync float64
	// Time is the step's total T, after noise.
	Time float64
	// Flows and Bytes summarize the step's traffic.
	Flows, Bytes int
	// GatingPid is the processor whose local work (including pack and
	// unpack overheads) set the step's w term, or -1 when no work was
	// charged. Imbalance is that maximum divided by the mean positive
	// work — 1 means perfectly balanced computation, large values mean
	// one machine gated the superstep (§4.1's warning sign).
	GatingPid int
	Imbalance float64
}

// StepCost charges one super^i-step: flows are the messages delivered at
// the step's end; work[pid] is the local computation each participant
// accrued, already expressed in fastest-machine time units. Flows whose
// source equals their destination are free (§5.2: a processor does not
// send data to itself).
func (f *Fabric) StepCost(scope *model.Machine, flows []cost.Flow, work map[int]float64) StepResult {
	res := StepResult{Sync: scope.SyncCost}

	// Message combining: collapse same-(src,dst) flows before charging.
	if f.cfg.CombineMessages {
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
		flows = combined
	}

	// Local work: caller-charged computation plus pack/unpack
	// overheads per endpoint.
	overhead := make(map[int]float64)
	for _, fl := range flows {
		if fl.Src == fl.Dst || fl.Bytes <= 0 {
			continue
		}
		res.Flows++
		res.Bytes += fl.Bytes
		if f.cfg.PackByte > 0 || f.cfg.MsgOverhead > 0 {
			if src := f.tree.Leaf(fl.Src); src != nil {
				overhead[fl.Src] += (f.cfg.PackByte*float64(fl.Bytes) + f.cfg.MsgOverhead) * src.CompSlowdown
			}
		}
		if f.cfg.UnpackByte > 0 {
			if dst := f.tree.Leaf(fl.Dst); dst != nil {
				overhead[fl.Dst] += f.cfg.UnpackByte * float64(fl.Bytes) * dst.CompSlowdown
			}
		}
	}
	res.GatingPid = -1
	perPid := make(map[int]float64, len(work)+len(overhead))
	for pid, w := range work {
		perPid[pid] = w + overhead[pid]
	}
	for pid, o := range overhead {
		if _, counted := work[pid]; !counted {
			perPid[pid] = o
		}
	}
	pids := make([]int, 0, len(perPid))
	for pid := range perPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	sum, positive := 0.0, 0
	for _, pid := range pids {
		total := perPid[pid]
		if total > res.W {
			res.W = total
			res.GatingPid = pid
		}
		if total > 0 {
			sum += total
			positive++
		}
	}
	if res.W == 0 {
		res.GatingPid = -1
	}
	if positive > 0 && sum > 0 {
		res.Imbalance = res.W / (sum / float64(positive))
	}

	res.H = cost.HRelationRated(f.tree, scope, flows, f.cfg.Rates)
	res.Comm = f.tree.G * res.H

	res.Time = res.W + res.Comm + res.Sync
	if f.cfg.Noise > 0 {
		res.Time *= 1 + f.cfg.Noise*f.rng.Float64()
	}
	return res
}
