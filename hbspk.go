// Package hbspk is an executable reproduction of the k-Heterogeneous
// Bulk Synchronous Parallel model (HBSP^k) of Williams & Parsons,
// "Exploiting Hierarchy in Heterogeneous Environments", IPPS 2001.
//
// The package provides:
//
//   - the machine representation: trees of heterogeneous machines with
//     the model parameters g, r_{i,j}, L_{i,j}, c_{i,j} (Table 1);
//   - HBSPlib, the superstep programming library, with a deterministic
//     virtual-time engine that charges the paper's cost model
//     T_i(λ) = w_i + g·h + L_{i,j} and a concurrent engine running
//     processors as real goroutines over a PVM-style substrate;
//   - the paper's collective communication algorithms — gather and
//     one-to-all broadcast, flat and hierarchical, one- and two-phase —
//     plus scatter, all-gather, reduce, all-reduce, scan and total
//     exchange;
//   - analytic cost prediction for every collective;
//   - balanced workload shares c_{i,j} from declared compute speed,
//     and for Figure 3(b) a seeded draw of estimation error, as the
//     paper's BYTEmark ranking gives;
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// The quickest way in:
//
//	tr := hbspk.UCFTestbed()
//	rep, err := hbspk.Run(tr, hbspk.PVMFabric(), func(c hbspk.Ctx) error {
//	    root := c.Tree().Pid(c.Tree().FastestLeaf())
//	    _, err := hbspk.Gather(c, c.Tree().Root, root, myLocalData)
//	    return err
//	})
package hbspk

import (
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// Core model types, re-exported from the internal packages so that
// applications only import hbspk.
type (
	// Machine is one node of an HBSP^k tree.
	Machine = model.Machine
	// Tree is a complete HBSP^k machine.
	Tree = model.Tree
	// Option configures a Machine under construction.
	Option = model.Option
	// Ctx is a processor's HBSPlib view during a run.
	Ctx = hbsp.Ctx
	// Program is an SPMD processor program.
	Program = hbsp.Program
	// Message is a delivered bulk message.
	Message = hbsp.Message
	// Report is the record of one run.
	Report = trace.Report
	// FabricConfig selects the effects charged beyond the pure model.
	FabricConfig = fabric.Config
)

// NewLeaf returns a processor machine.
func NewLeaf(name string, opts ...Option) *Machine { return model.NewLeaf(name, opts...) }

// NewCluster returns a machine composed of children.
func NewCluster(name string, children []*Machine, opts ...Option) *Machine {
	return model.NewCluster(name, children, opts...)
}

// WithComm sets r_{i,j}; WithComp the compute slowdown; WithSync
// L_{i,j}.
func WithComm(r float64) Option { return model.WithComm(r) }
func WithComp(s float64) Option { return model.WithComp(s) }
func WithSync(l float64) Option { return model.WithSync(l) }

// MustNew builds a Tree with bandwidth indicator g and panics on an
// invalid shape; call Normalize before running on it (the presets
// already do).
func MustNew(root *Machine, g float64) *Tree { return model.MustNew(root, g) }

// Presets from the paper.
func UCFTestbed() *Tree     { return model.UCFTestbed() }
func Figure1Cluster() *Tree { return model.Figure1Cluster() }
func WideAreaGrid(clusters, perCluster int, wanSlowdown, lanSync, wanSync float64) *Tree {
	return model.WideAreaGrid(clusters, perCluster, wanSlowdown, lanSync, wanSync)
}

// Fabric configurations.
func PureModelFabric() FabricConfig { return fabric.PureModel() }
func PVMFabric() FabricConfig       { return fabric.PVM() }

// Run executes the program on the virtual-time engine: a deterministic
// sequential simulation (one processor's program runs at a time, so a
// program waits on another processor only through Sync), charging the
// HBSP^k cost model through the given fabric.
func Run(t *Tree, cfg FabricConfig, prog Program) (*Report, error) {
	return hbsp.RunVirtual(t, cfg, prog)
}

// RunConcurrent executes the program with real parallelism on the PVM
// substrate and reports wall-clock times (microseconds).
func RunConcurrent(t *Tree, prog Program) (*Report, error) {
	return hbsp.NewConcurrent(t).Run(prog)
}

// ErrDesync is returned (wrapped, with the waiting and lagging
// processors named) when a program violates superstep discipline:
// RunConcurrent's watchdog converts the resulting deadlock into this
// error instead of blocking forever.
var ErrDesync = hbsp.ErrDesync

// Share returns the processor's balanced-workload fraction c_{i,j}.
func Share(c Ctx) float64 { return hbsp.Share(c) }
