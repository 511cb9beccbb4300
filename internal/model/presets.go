package model

import (
	"fmt"
	"os"
)

// Presets reconstruct the machines discussed in the paper. All presets
// return normalized trees that pass Validate.

// Figure1Cluster reproduces the HBSP^2 machine of the paper's Figures 1
// and 2: a symmetric multiprocessor with four processors, a lone SGI
// workstation, and a LAN of four workstations, joined by a campus
// network. Numbers follow the paper's qualitative description: the SMP's
// internal bus is fast and cheap to synchronize, the LAN is an order of
// magnitude slower, and the inter-cluster level is slower still (§1:
// "communication costs at different levels of the hierarchy can differ
// by an order of magnitude or more").
func Figure1Cluster() *Tree {
	smp := NewCluster("SMP", []*Machine{
		NewLeaf("smp-cpu0", WithComm(1), WithComp(1)),
		NewLeaf("smp-cpu1", WithComm(1), WithComp(1)),
		NewLeaf("smp-cpu2", WithComm(1), WithComp(1)),
		NewLeaf("smp-cpu3", WithComm(1), WithComp(1)),
	}, WithSync(500))
	sgi := NewLeaf("sgi", WithComm(1.5), WithComp(1.3))
	lan := NewCluster("LAN", []*Machine{
		NewLeaf("ws0", WithComm(2.0), WithComp(1.8)),
		NewLeaf("ws1", WithComm(2.5), WithComp(2.2)),
		NewLeaf("ws2", WithComm(3.0), WithComp(2.6)),
		NewLeaf("ws3", WithComm(4.0), WithComp(3.5)),
	}, WithComm(10), WithSync(25000))
	root := NewCluster("campus", []*Machine{smp, sgi, lan}, WithSync(250000))
	return MustNew(root, 1).Normalize()
}

// UCFTestbed reproduces the experimental testbed of §5.1: a
// non-dedicated heterogeneous cluster of ten SUN and SGI workstations
// joined by 100 Mbit/s Ethernet, i.e. an HBSP^1 machine. The speed
// profile is a plausible late-1990s SUN/SGI mix spanning roughly a 3x
// range of compute ability (the paper reports BYTEmark-derived ranks but
// not raw indices, so the speeds are declared); communication slowdowns spread over a narrower range
// because all machines share the same Ethernet and differ only in
// injection overhead. TestbedSize is the p of the paper's sweeps.
func UCFTestbed() *Tree {
	specs := testbedSpecs()
	children := make([]*Machine, len(specs))
	for i, s := range specs {
		children[i] = NewLeaf(s.name, WithComm(s.comm), WithComp(s.comp))
	}
	root := NewCluster("ucf-lan", children, WithSync(25000))
	return MustNew(root, 1).Normalize()
}

// TestbedSize is the number of workstations in the UCF testbed preset.
const TestbedSize = 10

type testbedSpec struct {
	name       string
	comm, comp float64
}

// The compute spread (2.2x, declared in place of a BYTEmark ranking) is
// much wider than the communication spread (1.25x): all ten machines
// share the same 100 Mbit/s Ethernet and differ on the wire only by
// packet-injection overhead, while their CPUs span several workstation
// generations.
func testbedSpecs() []testbedSpec {
	return []testbedSpec{
		{"sgi-o2-a", 1.00, 1.00},
		{"sgi-o2-b", 1.02, 1.03},
		{"sun-ultra10", 1.05, 1.12},
		{"sun-ultra5-a", 1.08, 1.22},
		{"sun-ultra5-b", 1.10, 1.28},
		{"sgi-indy-a", 1.13, 1.45},
		{"sgi-indy-b", 1.16, 1.55},
		{"sun-sparc20", 1.19, 1.75},
		{"sun-sparc5", 1.22, 1.95},
		{"sun-sparc4", 1.25, 2.20},
	}
}

// UCFTestbedN returns the first p workstations of the UCF testbed as an
// HBSP^1 machine, for the paper's p ∈ {2, 4, 6, 8, 10} sweeps. The
// machines are taken in an interleaved fast/slow order so that every
// sub-cluster spans the full heterogeneity range, mirroring the paper's
// setup in which P_f and P_s are present at every p.
func UCFTestbedN(p int) *Tree {
	if p < 1 || p > TestbedSize {
		panic(fmt.Sprintf("model: testbed size %d out of range [1,%d]", p, TestbedSize))
	}
	specs := testbedSpecs()
	// Interleave from both ends: fastest, slowest, 2nd fastest, ...
	order := make([]testbedSpec, 0, TestbedSize)
	for lo, hi := 0, TestbedSize-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, specs[lo])
		if lo != hi {
			order = append(order, specs[hi])
		}
	}
	children := make([]*Machine, p)
	for i := 0; i < p; i++ {
		s := order[i]
		children[i] = NewLeaf(s.name, WithComm(s.comm), WithComp(s.comp))
	}
	root := NewCluster("ucf-lan", children, WithSync(25000))
	return MustNew(root, 1).Normalize()
}

// Homogeneous returns a flat HBSP^1 machine of p identical processors:
// the degenerate case in which HBSP^k coincides with plain BSP (§2).
func Homogeneous(p int, syncCost float64) *Tree {
	children := make([]*Machine, p)
	for i := range children {
		children[i] = NewLeaf(fmt.Sprintf("proc%d", i))
	}
	root := NewCluster("bsp", children, WithSync(syncCost))
	return MustNew(root, 1).Normalize()
}

// SingleProcessor returns the HBSP^0 machine: one processor, no network.
func SingleProcessor() *Tree {
	return MustNew(NewLeaf("cpu"), 1).Normalize()
}

// WideAreaGrid returns an HBSP^2 machine of `clusters` campus clusters,
// each an HBSP^1 machine of `perCluster` workstations, joined by a
// wide-area network whose per-cluster injection slowdown is wanSlowdown
// (§3: "heterogeneous clusters that are hierarchically connected by
// internal buses or local-, campus-, or wide-area networks"). Cluster i
// runs at compute slowdown 1+i/2, so clusters themselves are
// heterogeneous.
func WideAreaGrid(clusters, perCluster int, wanSlowdown, lanSync, wanSync float64) *Tree {
	cs := make([]*Machine, clusters)
	for i := 0; i < clusters; i++ {
		ws := make([]*Machine, perCluster)
		base := 1 + float64(i)/2
		for j := 0; j < perCluster; j++ {
			slow := base * (1 + float64(j)*0.15)
			ws[j] = NewLeaf(fmt.Sprintf("c%d-ws%d", i, j), WithComm(slow), WithComp(slow))
		}
		cs[i] = NewCluster(fmt.Sprintf("cluster%d", i), ws,
			WithComm(wanSlowdown*base), WithSync(lanSync))
	}
	root := NewCluster("wan", cs, WithSync(wanSync))
	return MustNew(root, 1).Normalize()
}

// DeepChain returns a pathological HBSP^k machine: a chain of k nested
// clusters each containing one leaf and the next cluster. Useful for
// exercising level bookkeeping at large k.
func DeepChain(k int) *Tree {
	node := NewLeaf("leaf0")
	for i := 1; i <= k; i++ {
		node = NewCluster(fmt.Sprintf("nest%d", i), []*Machine{
			node,
			NewLeaf(fmt.Sprintf("leaf%d", i), WithComm(1+float64(i)), WithComp(1+float64(i))),
		}, WithComm(1+float64(i)), WithSync(float64(10*i)))
	}
	return MustNew(node, 1).Normalize()
}

// LoadMachine resolves the machine a command line names: a preset — ucf
// (or testbed), figure1, grid, chain — or else the path of a JSON spec
// file (ParseSpec).
func LoadMachine(name string) (*Tree, error) {
	switch name {
	case "ucf", "testbed":
		return UCFTestbed(), nil
	case "figure1":
		return Figure1Cluster(), nil
	case "grid":
		return WideAreaGrid(3, 4, 12, 25000, 250000), nil
	case "chain":
		return DeepChain(4), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("machine %q is not a preset (ucf, figure1, grid, chain) and unreadable as a spec file: %w", name, err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Tree()
}
