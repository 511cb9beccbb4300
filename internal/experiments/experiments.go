// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the analytical results of §4, on the simulated
// UCF testbed. Each experiment returns a Result holding the rendered
// table, the raw series, and the paper's claim for side-by-side
// comparison in EXPERIMENTS.md.
//
// Improvement factors follow §5.1: the improvement of algorithm B over
// algorithm A is T_A/T_B, so values above 1 mean B wins.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/trace"
)

// Config parameterizes a run of the experiment suite.
type Config struct {
	// Sizes is the problem-size sweep in bytes (default: the paper's
	// 100–1000 KB).
	Sizes []int
	// Ps is the processor-count sweep (default: 2, 4, 6, 8, 10).
	Ps []int
	// Fabric models the testbed; the default is the PVM overhead model
	// without noise, which keeps runs deterministic.
	Fabric fabric.Config
	// Seed drives the draw of c_j estimation error, as the paper's
	// BYTEmark ranking gives (and fabric noise if enabled).
	Seed int64
}

// KB is the paper's size unit.
const KB = 1000

// PaperSizes returns the §5.1 problem-size sweep, "100 KBytes to 1000
// KBytes of uniformly distributed integers", in 100 KB steps.
func PaperSizes() []int {
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = (i + 1) * 100 * KB
	}
	return sizes
}

// Default returns the paper's sweep on the deterministic PVM fabric.
func Default() Config {
	return Config{
		Sizes:  PaperSizes(),
		Ps:     []int{2, 4, 6, 8, 10},
		Fabric: fabric.PVM(),
		Seed:   1,
	}
}

// Quick returns a reduced sweep for tests: three sizes, three p values.
func Quick() Config {
	return Config{
		Sizes:  []int{100 * KB, 500 * KB, 1000 * KB},
		Ps:     []int{2, 4, 10},
		Fabric: fabric.PVM(),
		Seed:   1,
	}
}

// fabricFor derives a per-measurement fabric configuration: when noise
// is enabled, every (p, n, variant) measurement gets its own seed so
// that the two sides of an improvement ratio draw independent noise —
// as two wall-clock runs on a real non-dedicated cluster would.
func (c Config) fabricFor(p, n, variant int) fabric.Config {
	f := c.Fabric
	if f.Noise > 0 {
		f.Seed = f.Seed*1000003 + int64(p)*101 + int64(n)*13 + int64(variant)
	}
	return f
}

// Point is one measured (x, y) pair of a series.
type Point struct{ X, Y float64 }

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper's designation ("fig3a", "table1", ...).
	ID string
	// Title describes the experiment; PaperClaim quotes the shape the
	// paper reports, for EXPERIMENTS.md.
	Title      string
	PaperClaim string
	// Table is the rendered data; Series the raw curves.
	Table  *trace.Table
	Series []Series
}

// Runner is a registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1: model notation", Table1},
		{"fig3a", "Figure 3(a): gather, slow vs fast root", Figure3a},
		{"fig3b", "Figure 3(b): gather, unbalanced vs balanced", Figure3b},
		{"fig4a", "Figure 4(a): broadcast, slow vs fast root", Figure4a},
		{"fig4b", "Figure 4(b): broadcast, unbalanced vs balanced", Figure4b},
		{"xphase", "§4.4: one-phase vs two-phase broadcast crossover", BroadcastCrossover},
		{"penalty", "§3.4/§4.3: the penalty of hierarchy", HierarchyPenalty},
		{"calibrate", "Parameter fitting: recovering g and L", Calibrate},
		{"sens-rs", "Sensitivity: the slowest machine's r", SensitivityRS},
		{"sens-l", "Sensitivity: the barrier cost L", SensitivityL},
		{"suite", "Collective suite summary", SuiteSummary},
		{"straggler", "Straggler study: rebalancing c_{i,j}", Straggler},
		{"blindness", "BSP vs HBSP^k prediction error", BSPBlindness},
		{"kscale", "Depth scaling: HBSP^1 through HBSP^4", KScaling},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// measure runs prog on the virtual engine over tr and returns the total
// virtual time.
func measure(tr *model.Tree, cfg fabric.Config, prog hbsp.Program) (float64, error) {
	rep, err := hbsp.RunVirtual(tr, cfg, prog)
	if err != nil {
		return 0, err
	}
	return rep.Total, nil
}

// gather is the flat HBSP^1 gather of d at root.
func gather(d cost.Dist, root int) hbsp.Program {
	return func(c hbsp.Ctx) error {
		_, err := collective.Gather(c, c.Tree().Root, root, make([]byte, d[c.Pid()]))
		return err
	}
}

// bcast broadcasts n bytes from root with one of the flat broadcasts:
// run gets the payload at root and nil elsewhere.
func bcast(root, n int, run func(c hbsp.Ctx, in []byte) ([]byte, error)) hbsp.Program {
	return func(c hbsp.Ctx) error {
		var in []byte
		if c.Pid() == root {
			in = make([]byte, n)
		}
		_, err := run(c, in)
		return err
	}
}

// bcastOnePhase and bcastBinomial broadcast over the whole machine;
// bcastTwoPhase does too, with equal first-phase pieces.
func bcastOnePhase(root, n int) hbsp.Program {
	return bcast(root, n, func(c hbsp.Ctx, in []byte) ([]byte, error) {
		return collective.BcastOnePhase(c, c.Tree().Root, root, in)
	})
}

func bcastTwoPhase(root, n int) hbsp.Program {
	return bcast(root, n, func(c hbsp.Ctx, in []byte) ([]byte, error) {
		return collective.BcastTwoPhase(c, c.Tree().Root, root, in, nil)
	})
}

func bcastBinomial(root, n int) hbsp.Program {
	return bcast(root, n, func(c hbsp.Ctx, in []byte) ([]byte, error) {
		return collective.BcastBinomial(c, c.Tree().Root, root, in)
	})
}

// testbedWithMeasuredShares builds the p-processor testbed and fills its
// c_j shares from a seeded draw of estimation error, as the paper's
// BYTEmark ranking gives (§5.1: "c_i is computed using the BYTEmark
// results"). Each leaf's estimated speed is the geometric mean of ten
// readings of 1/CompSlowdown, each off by a factor drawn uniformly from
// [0.92, 1.08], leaf by leaf in Leaves order; the shares follow the
// estimates, not the true speeds, which is what Figure 3(b) shows.
func testbedWithMeasuredShares(p int, seed int64) *model.Tree {
	tr := model.UCFTestbedN(p)
	rng := rand.New(rand.NewSource(seed))
	leaves := tr.Leaves()
	speed := make([]float64, len(leaves))
	best := 0.0
	for i, leaf := range leaves {
		logSum := 0.0
		for k := 0; k < 10; k++ {
			noise := 1 + 0.08*(rng.Float64()*2-1)
			logSum += math.Log(1 / (leaf.CompSlowdown * noise))
		}
		speed[i] = math.Exp(logSum / 10)
		best = math.Max(best, speed[i])
	}
	total := 0.0
	for i := range speed {
		speed[i] /= best
		total += speed[i]
	}
	for i, leaf := range leaves {
		leaf.Share = speed[i] / total
	}
	tr.Normalize()
	return tr
}

// improvementFigure runs a (size × p) sweep of T_A/T_B and renders it:
// progs returns the programs A and B for n bytes on tr, and each runs on
// its own fabric.
func improvementFigure(cfg Config, id, title, claim, ratioName string,
	progs func(tr *model.Tree, n int) (a, b hbsp.Program)) (*Result, error) {
	header := []string{"size(KB)"}
	for _, p := range cfg.Ps {
		header = append(header, fmt.Sprintf("p=%d", p))
	}
	tb := trace.NewTable(fmt.Sprintf("%s — improvement factor %s", title, ratioName), header...)
	res := &Result{ID: id, Title: title, PaperClaim: claim, Table: tb}
	series := make([]Series, len(cfg.Ps))
	for i, p := range cfg.Ps {
		series[i].Name = fmt.Sprintf("p=%d", p)
	}
	// Trees are built up front (each draws its c_j estimation error
	// from one seeded source), then shared read-only by every point of
	// their column.
	trees := make([]*model.Tree, len(cfg.Ps))
	for i, p := range cfg.Ps {
		trees[i] = testbedWithMeasuredShares(p, cfg.Seed)
	}
	// Fan the (size × p) grid; point (si, pi) owns slot si*len(Ps)+pi.
	imprs := make([]float64, len(cfg.Sizes)*len(cfg.Ps))
	err := forEachPoint(len(imprs), func(idx int) error {
		si, pi := idx/len(cfg.Ps), idx%len(cfg.Ps)
		tr, p, n := trees[pi], cfg.Ps[pi], cfg.Sizes[si]
		a, b := progs(tr, n)
		tA, err := measure(tr, cfg.fabricFor(p, n, 0), a)
		if err != nil {
			return err
		}
		tB, err := measure(tr, cfg.fabricFor(p, n, 1), b)
		if err != nil {
			return err
		}
		imprs[idx] = tA / tB
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, n := range cfg.Sizes {
		row := []interface{}{n / KB}
		for pi := range cfg.Ps {
			impr := imprs[si*len(cfg.Ps)+pi]
			row = append(row, impr)
			series[pi].Points = append(series[pi].Points, Point{X: float64(n), Y: impr})
		}
		tb.AddF(row...)
	}
	res.Series = series
	return res, nil
}

// Table1 renders the paper's notation table with the UCF testbed's
// concrete values.
func Table1(cfg Config) (*Result, error) {
	tr := model.UCFTestbed()
	tb := trace.NewTable("Table 1: definitions of notations", "symbol", "meaning", "testbed value")
	for _, p := range cost.Table1() {
		v := ""
		if p.Value != nil {
			v = p.Value(tr)
		}
		tb.Add(p.Symbol, p.Meaning, v)
	}
	return &Result{
		ID:         "table1",
		Title:      "Table 1: model notation",
		PaperClaim: "definitions of the HBSP^k parameters",
		Table:      tb,
	}, nil
}
