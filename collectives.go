package hbspk

import "hbspk/internal/collective"

// Collective communication over the public API. All operations are
// SPMD: every processor of the scope calls the same function; see the
// per-operation docs in internal/collective for the cost analyses.

// Op is an associative reduction operator; SumOp, MaxOp and MinOp are
// ready-made instances.
type Op = collective.Op

// Ready-made reduction operators.
var (
	SumOp = collective.Sum
	MaxOp = collective.Max
	MinOp = collective.Min
)

// PieceDist describes per-participant piece sizes for the two-phase
// broadcast's first phase.
type PieceDist = collective.Dist

// EqualPieces and BalancedPieces build the §5.1 partitioning policies.
func EqualPieces(c Ctx, scope *Machine, n int) PieceDist {
	return collective.EqualPieces(c, scope, n)
}
func BalancedPieces(c Ctx, scope *Machine, n int) PieceDist {
	return collective.BalancedPieces(c, scope, n)
}

// Gather collects every participant's bytes at the processor with pid
// root in one superstep (§4.2); the root gets the pieces keyed by pid.
func Gather(c Ctx, scope *Machine, root int, local []byte) (map[int][]byte, error) {
	return collective.Gather(c, scope, root, local)
}

// GatherHier collects every processor's bytes at the machine's fastest
// processor, level by level (§4.3).
func GatherHier(c Ctx, local []byte) (map[int][]byte, error) {
	return collective.GatherHier(c, local)
}

// BcastOnePhase broadcasts data from the root processor in one
// superstep (§4.4).
func BcastOnePhase(c Ctx, scope *Machine, root int, data []byte) ([]byte, error) {
	return collective.BcastOnePhase(c, scope, root, data)
}

// BcastTwoPhase broadcasts data with the §4.4 two-phase algorithm:
// scatter pieces (d, nil = equal), then all-to-all exchange. The root
// returns data itself.
func BcastTwoPhase(c Ctx, scope *Machine, root int, data []byte, d PieceDist) ([]byte, error) {
	return collective.BcastTwoPhase(c, scope, root, data, d)
}

// BcastHier broadcasts from the machine's fastest processor down the
// hierarchy (§4.4, generalized to any k). The fastest processor returns
// data itself, not a copy; every other processor returns a copy of its
// own.
func BcastHier(c Ctx, data []byte, twoPhaseTop bool) ([]byte, error) {
	return collective.BcastHier(c, data, twoPhaseTop)
}

// Scatter delivers per-pid pieces from the root processor in one
// superstep.
func Scatter(c Ctx, scope *Machine, root int, pieces map[int][]byte) ([]byte, error) {
	return collective.Scatter(c, scope, root, pieces)
}

// ScatterHier delivers per-pid pieces from the machine's fastest
// processor down the hierarchy.
func ScatterHier(c Ctx, pieces map[int][]byte) ([]byte, error) {
	return collective.ScatterHier(c, pieces)
}

// AllGather leaves every participant with every piece.
func AllGather(c Ctx, scope *Machine, local []byte) (map[int][]byte, error) {
	return collective.AllGather(c, scope, local)
}

// TotalExchange is the all-to-all personalized exchange.
func TotalExchange(c Ctx, scope *Machine, outgoing map[int][]byte) (map[int][]byte, error) {
	return collective.TotalExchange(c, scope, outgoing)
}

// Reduce combines vectors at the root processor.
func Reduce(c Ctx, scope *Machine, root int, local []int64, op Op) ([]int64, error) {
	return collective.Reduce(c, scope, root, local, op)
}

// ReduceHier combines vectors up the hierarchy to the fastest processor.
func ReduceHier(c Ctx, local []int64, op Op) ([]int64, error) {
	return collective.ReduceHier(c, local, op)
}

// AllReduce leaves every processor with the combined vector, in a slice
// of its own; the fastest processor returns the vector it folded.
func AllReduce(c Ctx, local []int64, op Op) ([]int64, error) {
	return collective.AllReduce(c, local, op)
}

// Scan computes inclusive prefix reductions over pid order.
func Scan(c Ctx, scope *Machine, local []int64, op Op) ([]int64, error) {
	return collective.Scan(c, scope, local, op)
}
