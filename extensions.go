package hbspk

import (
	"hbspk/internal/apps"
	"hbspk/internal/collective"
	"hbspk/internal/model"
)

// Extensions beyond the paper's core: the §6 per-destination rate
// tables, the thesis-style hierarchical collectives, and the
// applications layer.

// RateTable extends r_{i,j} with per-destination factors (§6 future
// work). Attach one to a fabric with WithRates.
type RateTable = model.RateTable

// NewRateTable returns an empty table (all factors 1).
func NewRateTable() *RateTable { return model.NewRateTable() }

// WithRates returns a copy of the fabric configuration using the table.
func WithRates(cfg FabricConfig, rt *RateTable) FabricConfig {
	cfg.Rates = rt
	return cfg
}

// WithMsgOverhead returns a copy of the configuration charging a fixed
// per-message cost to senders (PVM's per-message latency).
func WithMsgOverhead(cfg FabricConfig, overhead float64) FabricConfig {
	cfg.MsgOverhead = overhead
	return cfg
}

// AllGatherHier leaves every processor with every piece using the
// hierarchy twice (gather up, broadcast down).
func AllGatherHier(c Ctx, local []byte) (map[int][]byte, error) {
	return collective.AllGatherHier(c, local)
}

// ScanHier computes inclusive prefix reductions with two hierarchical
// sweeps.
func ScanHier(c Ctx, local []int64, op Op) ([]int64, error) {
	return collective.ScanHier(c, local, op)
}

// ReduceScatter folds all vectors and scatters result segments sized by
// d.
func ReduceScatter(c Ctx, scope *Machine, local []int64, d PieceDist, op Op) ([]int64, error) {
	return collective.ReduceScatter(c, scope, local, d, op)
}

// MatVec computes y = A·x with shares-proportional row distribution;
// see internal/apps for the protocol.
func MatVec(c Ctx, a []float64, m, n int, x []float64, balanced bool) ([]float64, error) {
	return apps.MatVec(c, a, m, n, x, balanced)
}

// MatMul computes C = A·B with shares-proportional row distribution.
func MatMul(c Ctx, a []float64, m, k int, b []float64, n int, balanced bool) ([]float64, error) {
	return apps.MatMul(c, a, m, k, b, n, balanced)
}

// Histogram combines per-processor byte histograms machine-wide.
func Histogram(c Ctx, local []byte, buckets int) ([]int64, error) {
	return apps.Histogram(c, local, buckets)
}

// CGConfig configures the distributed conjugate-gradient solver;
// CGResult is its per-processor outcome.
type (
	CGConfig = apps.CGConfig
	CGResult = apps.CGResult
)

// CG solves a symmetric positive-definite system A·x = b with
// row-distributed conjugate gradients; see internal/apps for the
// superstep structure.
func CG(c Ctx, cfg CGConfig, a func(i, j int) float64, b func(i int) float64) (*CGResult, error) {
	return apps.CG(c, cfg, a, b)
}

// JacobiConfig and JacobiResult configure the 1-D Poisson solver.
type (
	JacobiConfig = apps.JacobiConfig
	JacobiResult = apps.JacobiResult
)

// Jacobi runs the halo-exchange Jacobi iteration.
func Jacobi(c Ctx, cfg JacobiConfig, f func(i int) float64) (*JacobiResult, error) {
	return apps.Jacobi(c, cfg, f)
}

// BcastBinomial is the binomial-tree broadcast (recursive doubling).
func BcastBinomial(c Ctx, scope *Machine, root int, data []byte) ([]byte, error) {
	return collective.BcastBinomial(c, scope, root, data)
}

// TotalExchangeHier routes the all-to-all personalized exchange through
// cluster coordinators.
func TotalExchangeHier(c Ctx, outgoing map[int][]byte) (map[int][]byte, error) {
	return collective.TotalExchangeHier(c, outgoing)
}

// CSR is a compressed-sparse-row matrix for SpMV.
type CSR = apps.CSR

// SpMV computes y = A·x for a CSR matrix with nnz-balanced row
// ownership (flops follow nonzeros, not row counts).
func SpMV(c Ctx, m *CSR, x []float64, balanced bool) ([]float64, error) {
	return apps.SpMV(c, m, x, balanced)
}
