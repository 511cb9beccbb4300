// Package costparams is the golden fixture for the costparams
// analyzer: stub model constructors and options with seeded
// out-of-range literal parameters.
package costparams

type Machine struct{}

type Option func(*Machine)

func WithComm(r float64) Option  { return nil }
func WithComp(s float64) Option  { return nil }
func WithSync(l float64) Option  { return nil }
func WithShare(c float64) Option { return nil }

func NewLeaf(name string, opts ...Option) *Machine { return &Machine{} }

type Tree struct{}

func (t *Tree) Normalize() *Tree { return t }

func New(root *Machine, g float64) (*Tree, error) { return &Tree{}, nil }

func MustNew(root *Machine, g float64) *Tree { return &Tree{} }

type Engine struct{}

func NewVirtual(t *Tree) *Engine    { return &Engine{} }
func NewConcurrent(t *Tree) *Engine { return &Engine{} }

const negativeLatency = -25000.0

// --- violations ---

func zeroBandwidth(root *Machine) *Tree {
	return MustNew(root, 0) // want `bandwidth indicator g = 0, want > 0`
}

func negativeBandwidth(root *Machine) (*Tree, error) {
	return New(root, -1.5) // want `bandwidth indicator g = -1.5, want > 0`
}

func badOptions() *Machine {
	return NewLeaf("w",
		WithComm(0),               // want `communication slowdown r = 0, want > 0`
		WithComp(-2),              // want `compute slowdown = -2, want > 0`
		WithSync(negativeLatency), // want `synchronization cost L = -25000, want >= 0`
		WithShare(1.5),            // want `workload share c = 1.5, want in \[0, 1\]`
	)
}

func negativeShare() Option {
	return WithShare(-0.25) // want `workload share c = -0.25, want in \[0, 1\]`
}

func rawTreeIntoEngine(root *Machine) *Engine {
	return NewVirtual(MustNew(root, 1)) // want `tree passed to NewVirtual without Normalize`
}

// --- valid uses ---

func normalizedTree(root *Machine) *Engine {
	return NewVirtual(MustNew(root, 1).Normalize())
}

func freeBarrierIsLegal() Option {
	return WithSync(0)
}

func runtimeValuesAreOutOfScope(g float64) *Tree {
	// Only literals are checked; dynamic values are Validate's job.
	return MustNew(&Machine{}, g)
}

func boundaryShare() Option {
	return WithShare(1)
}
