package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// The symbolic cost-expression grammar (DESIGN.md §5.6). A superstep's
// statically extracted cost bound is an expression over the HBSP^k
// model parameters:
//
//	expr := const
//	      | param                     g, rmax, L, p
//	      | size(src-text)            a payload byte count
//	      | coll(variant, expr)       a collective's closed form at size expr
//	      | expr + expr | expr · expr | max(expr, expr) | k·expr
//
// Parameters are resolved against a concrete machine tree (g = t.G,
// rmax = the largest leaf communication slowdown, L = the largest
// barrier cost of any scope — upper bounds, since the analysis cannot
// know which scope a barrier resolves to), sizes against a caller-
// provided binding of source expressions to byte counts, and coll nodes
// against the closed-form hooks of internal/collective.

// ExprOp is a cost-expression node kind.
type ExprOp uint8

const (
	// OpConst is a literal value (Val).
	OpConst ExprOp = iota
	// OpParam is a named model parameter (Name: "g", "rmax", "L").
	OpParam
	// OpSize is a symbolic payload byte count; Name holds the source
	// expression it came from ("len(local)", "n*8").
	OpSize
	// OpColl is a collective call's closed-form cost: Name is the
	// variant, Args[0] the total-size expression.
	OpColl
	// OpAdd, OpMul, OpMax combine Args.
	OpAdd
	OpMul
	OpMax
)

// Expr is one node of a symbolic cost expression.
type Expr struct {
	Op   ExprOp
	Val  float64
	Name string
	Args []*Expr
}

// Constructors. Add and Mul fold their identities so rendered
// expressions stay minimal.

func Const(v float64) *Expr    { return &Expr{Op: OpConst, Val: v} }
func Param(name string) *Expr  { return &Expr{Op: OpParam, Name: name} }
func SizeSym(src string) *Expr { return &Expr{Op: OpSize, Name: src} }
func Coll(name string, size *Expr) *Expr {
	return &Expr{Op: OpColl, Name: name, Args: []*Expr{size}}
}

func Add(args ...*Expr) *Expr {
	var kept []*Expr
	for _, a := range args {
		if a == nil || (a.Op == OpConst && a.Val == 0) {
			continue
		}
		kept = append(kept, a)
	}
	switch len(kept) {
	case 0:
		return Const(0)
	case 1:
		return kept[0]
	}
	return &Expr{Op: OpAdd, Args: kept}
}

func Mul(args ...*Expr) *Expr {
	var kept []*Expr
	for _, a := range args {
		if a == nil {
			continue
		}
		if a.Op == OpConst && a.Val == 1 {
			continue
		}
		if a.Op == OpConst && a.Val == 0 {
			return Const(0)
		}
		kept = append(kept, a)
	}
	switch len(kept) {
	case 0:
		return Const(1)
	case 1:
		return kept[0]
	}
	return &Expr{Op: OpMul, Args: kept}
}

func Max(args ...*Expr) *Expr {
	var kept []*Expr
	for _, a := range args {
		if a != nil {
			kept = append(kept, a)
		}
	}
	switch len(kept) {
	case 0:
		return Const(0)
	case 1:
		return kept[0]
	}
	return &Expr{Op: OpMax, Args: kept}
}

// String renders the expression in the documented grammar.
func (e *Expr) String() string {
	switch e.Op {
	case OpConst:
		return trimFloat(e.Val)
	case OpParam:
		return e.Name
	case OpSize:
		return "size(" + e.Name + ")"
	case OpColl:
		return fmt.Sprintf("coll(%s, %s)", e.Name, e.Args[0])
	case OpAdd:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return strings.Join(parts, " + ")
	case OpMul:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			s := a.String()
			if a.Op == OpAdd {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, "*")
	case OpMax:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return "max(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// CostEnv supplies concrete values for evaluation: a calibrated machine
// tree for the model parameters and collective closed forms, plus
// optional bindings for symbolic sizes (keyed by their source text).
type CostEnv struct {
	Tree  *model.Tree
	Sizes map[string]float64
}

// params derives the parameter values the grammar documents.
func (env *CostEnv) param(name string) (float64, error) {
	t := env.Tree
	if t == nil {
		return 0, fmt.Errorf("no machine tree bound for parameter %s", name)
	}
	switch name {
	case "g":
		return t.G, nil
	case "rmax":
		r := 0.0
		for _, l := range t.Leaves() {
			if l.CommSlowdown > r {
				r = l.CommSlowdown
			}
		}
		return r, nil
	case "L":
		L := 0.0
		t.Root.Walk(func(m *model.Machine) {
			if m.SyncCost > L {
				L = m.SyncCost
			}
		})
		return L, nil
	case "p":
		return float64(t.NProcs()), nil
	}
	return 0, fmt.Errorf("unknown model parameter %s", name)
}

// Eval resolves the expression against env. Unresolvable symbols (an
// unbound size, a missing tree) return an error naming the symbol, so
// callers can fall back to printing the expression symbolically.
func (e *Expr) Eval(env *CostEnv) (float64, error) {
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpParam:
		return env.param(e.Name)
	case OpSize:
		if v, ok := env.Sizes[e.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("unbound size %q", e.Name)
	case OpColl:
		if env.Tree == nil {
			return 0, fmt.Errorf("no machine tree bound for coll(%s)", e.Name)
		}
		n, err := e.Args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		v, ok := plan.VariantByName(e.Name)
		if !ok {
			return 0, fmt.Errorf("no closed-form hook for collective %s", e.Name)
		}
		return v.Predict(env.Tree, int(n)), nil
	case OpAdd:
		sum := 0.0
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			sum += v
		}
		return sum, nil
	case OpMul:
		prod := 1.0
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			prod *= v
		}
		return prod, nil
	case OpMax:
		best := math.Inf(-1)
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			if v > best {
				best = v
			}
		}
		return best, nil
	}
	return 0, fmt.Errorf("bad expression op %d", e.Op)
}

// FreeSizes returns the distinct unbound size symbols, sorted — what a
// caller must bind for Eval to succeed on a calibrated tree.
func (e *Expr) FreeSizes() []string {
	set := map[string]bool{}
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.Op == OpSize {
			set[x.Name] = true
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
