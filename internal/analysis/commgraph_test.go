package analysis

import "testing"

func TestCommGraphGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "commgraph")
}

// TestFlatFanoutGolden: a pid-guarded root sending to every processor in
// one superstep of a program body is commgraph's; the same shape in a
// library function, and an all-to-all exchange, are not.
func TestFlatFanoutGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "flatfanout")
}
