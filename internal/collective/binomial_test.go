package collective

import (
	"testing"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
)

func TestBcastBinomialStepCount(t *testing.T) {
	tr := model.UCFTestbedN(10)
	root := tr.Pid(tr.FastestLeaf())
	rep := func() int {
		r, err := hbsp.RunVirtual(tr, fabric.PureModel(), func(c hbsp.Ctx) error {
			var in []byte
			if c.Pid() == root {
				in = make([]byte, 100)
			}
			_, err := BcastBinomial(c, c.Tree().Root, root, in)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Supersteps()
	}()
	if want := 4; rep != want { // ceil(log2 10)
		t.Errorf("steps = %d, want %d", rep, want)
	}
}

func TestBinomialVsOneAndTwoPhaseRegimes(t *testing.T) {
	// Small n: binomial's log p messages beat one-phase's p−1 fan-out
	// only when L doesn't dominate; large n: two-phase's bounded byte
	// movement wins over binomial's log p full copies.
	tr := model.UCFTestbedN(10)
	root := tr.Pid(tr.FastestLeaf())
	big := 1000000
	bin := cost.BcastBinomial(tr, root, big).Total()
	two := cost.BcastTwoPhaseFlat(tr, root, cost.EqualDist(tr, big)).Total()
	one := cost.BcastOnePhaseFlat(tr, root, big).Total()
	if two >= bin {
		t.Errorf("large n: two-phase %v should beat binomial %v", two, bin)
	}
	if bin >= one {
		t.Errorf("large n: binomial %v should beat one-phase %v", bin, one)
	}
}
