// Package workload holds the problem sizes of the experiments of §5.1 —
// "100 KBytes to 1000 KBytes of uniformly distributed integers".
package workload

// KB is the paper's size unit.
const KB = 1000

// PaperSizes returns the §5.1 problem-size sweep: 100 KB to 1000 KB in
// 100 KB steps.
func PaperSizes() []int {
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = (i + 1) * 100 * KB
	}
	return sizes
}
