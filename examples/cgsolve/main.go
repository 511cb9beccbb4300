// Cgsolve: a distributed conjugate-gradient solve on the UCF testbed —
// the full iterative-application story in one run: the testbed's
// declared shares, which follow compute speed, decide row ownership,
// every iteration is an all-gather + local mat-vec + two reductions
// superstep pattern, and the run ends with the per-superstep profile
// and timeline.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"hbspk"
)

const n = 200 // system size

// The system: a diagonally dominant SPD banded matrix.
func matrix(i, j int) float64 {
	switch d := i - j; {
	case d == 0:
		return 6
	case d == 1 || d == -1:
		return -2
	case d == 2 || d == -2:
		return -0.5
	default:
		return 0
	}
}

func rhs(i int) float64 { return math.Sin(float64(i)/7) + 1.5 }

func main() {
	tree := hbspk.UCFTestbed()

	solve := func(balanced bool) (*hbspk.Report, []float64, int) {
		cfg := hbspk.CGConfig{N: n, MaxIters: 400, Tolerance: 1e-10, Balanced: balanced}
		var x []float64
		var iters int
		var mu sync.Mutex
		rep, err := hbspk.Run(tree, hbspk.PVMFabric(), func(c hbspk.Ctx) error {
			res, err := hbspk.CG(c, cfg, matrix, rhs)
			if err != nil {
				return err
			}
			rootPid := c.Tree().Pid(c.Tree().FastestLeaf())
			parts, err := hbspk.Gather(c, c.Tree().Root, rootPid, encode(res.X))
			if err != nil {
				return err
			}
			if parts != nil {
				mu.Lock()
				for pid := 0; pid < c.NProcs(); pid++ {
					x = append(x, decode(parts[pid])...)
				}
				iters = res.Iters
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep, x, iters
	}

	repBal, x, iters := solve(true)
	repEq, _, _ := solve(false)

	// Verify the residual directly.
	worst := 0.0
	for i := 0; i < n; i++ {
		r := -rhs(i)
		for j := 0; j < n; j++ {
			r += matrix(i, j) * x[j]
		}
		if math.Abs(r) > worst {
			worst = math.Abs(r)
		}
	}
	fmt.Printf("conjugate gradient, %d×%d SPD system on the %d-machine testbed\n", n, n, tree.NProcs())
	fmt.Printf("  converged in %d iterations, max residual %.2e\n", iters, worst)
	fmt.Printf("  balanced rows: %.4g time units over %d supersteps\n", repBal.Total, repBal.Supersteps())
	fmt.Printf("  equal rows:    %.4g time units\n", repEq.Total)
	fmt.Printf("  improvement factor T_u/T_b = %.3f\n", repEq.Total/repBal.Total)
	fmt.Println("\nfirst iterations on the timeline:")
	short := &hbspk.Report{Steps: repBal.Steps[:min(16, len(repBal.Steps))], Total: repBal.Steps[min(16, len(repBal.Steps))-1].End}
	fmt.Print(short.Timeline(100))
}

func encode(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		bits := math.Float64bits(x)
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(bits >> (56 - 8*b))
		}
	}
	return out
}

func decode(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		bits := uint64(0)
		for k := 0; k < 8; k++ {
			bits = bits<<8 | uint64(b[8*i+k])
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
