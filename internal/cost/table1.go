package cost

import (
	"fmt"
	"strings"

	"hbspk/internal/model"
)

// Param is one row of the paper's Table 1 ("Definitions of Notations").
type Param struct {
	Symbol  string
	Meaning string
	// Value renders the parameter's concrete value(s) for a tree, or ""
	// for purely notational rows.
	Value func(t *model.Tree) string
}

// Table1 returns the paper's notation table, with each row able to
// report its concrete value for a given machine. Regenerated by
// `hbspk-predict -describe` and checked by TestTable1RendersAllSymbols.
func Table1() []Param {
	return []Param{
		{"M_{i,j}", "a machine's identity, where 0 <= i <= k, 0 <= j < m_i", nil},
		{"m_i", "number of HBSP^i machines on level i", func(t *model.Tree) string {
			parts := make([]string, t.K()+1)
			for i := 0; i <= t.K(); i++ {
				parts[i] = fmt.Sprintf("m_%d=%d", i, t.M(i))
			}
			return strings.Join(parts, " ")
		}},
		{"m_{i,j}", "number of children of M_{i,j}", func(t *model.Tree) string {
			return fmt.Sprintf("m_{%d,0}=%d", t.K(), t.Root.Fanout())
		}},
		{"g", "speed the fastest machine can inject packets into the network", func(t *model.Tree) string {
			return fmt.Sprintf("%g", t.G)
		}},
		{"r_{i,j}", "speed relative to the fastest machine for M_{i,j} to inject packets into the network", func(t *model.Tree) string {
			return fmt.Sprintf("r_fastest=%g r_slowest=%g",
				t.FastestLeaf().CommSlowdown, t.SlowestLeaf().CommSlowdown)
		}},
		{"L_{i,j}", "overhead to perform a barrier synchronization of the machines in the jth cluster of level i", func(t *model.Tree) string {
			return fmt.Sprintf("L_{%d,0}=%g", t.K(), t.Root.SyncCost)
		}},
		{"c_{i,j}", "fraction of the problem size that M_{i,j} receives", func(t *model.Tree) string {
			return fmt.Sprintf("c_fastest=%.3f c_slowest=%.3f",
				t.FastestLeaf().Share, t.SlowestLeaf().Share)
		}},
		{"h", "size of a heterogeneous h-relation", nil},
		{"h_{i,j}", "largest number of packets sent or received by M_{i,j} in a super^i-step", nil},
		{"T_i(lambda)", "execution time of super^i-step lambda", nil},
	}
}

// RenderTable1 formats the notation table, with concrete values for the
// given machine when t is non-nil.
func RenderTable1(t *model.Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-78s %s\n", "Symbol", "Meaning", "Value")
	for _, p := range Table1() {
		v := ""
		if p.Value != nil && t != nil {
			v = p.Value(t)
		}
		fmt.Fprintf(&b, "%-12s %-78s %s\n", p.Symbol, p.Meaning, v)
	}
	return b.String()
}
