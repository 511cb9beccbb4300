package hbspk

import (
	"hbspk/internal/apps"
	"hbspk/internal/model"
)

// Extensions beyond the paper's core: the §6 per-destination rate
// tables and the applications layer.

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
