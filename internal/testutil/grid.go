package testutil

import (
	"math/rand"

	"hbspk/internal/model"
)

// GridTrees and GridSizes are the grid the cost table is held to: every
// row's catalogue entry runs what it prices on each tree at each size,
// and the planner picks no worse than the best fixed variant on each
// tree at each size but the last. The first four sizes are planner bucket
// representatives (3·2^(b-2)); 7777 is one that no processor count of
// the grid divides.
var GridTrees = []struct {
	Name  string
	Build func() *model.Tree
}{
	{"figure1", model.Figure1Cluster},
	{"ucf8", func() *model.Tree { return model.UCFTestbedN(8) }},
	{"rand3x4", func() *model.Tree { return model.RandomTree(rand.New(rand.NewSource(7)), 3, 4) }},
	{"grid", func() *model.Tree { return model.WideAreaGrid(2, 2, 4, 10, 100) }},
}

var GridSizes = []int{3 << 8, 3 << 12, 3 << 16, 3 << 18, 7777}
