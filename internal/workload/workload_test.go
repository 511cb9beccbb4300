package workload

import "testing"

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	if len(sizes) != 10 || sizes[0] != 100*KB || sizes[9] != 1000*KB {
		t.Errorf("sizes = %v", sizes)
	}
}
