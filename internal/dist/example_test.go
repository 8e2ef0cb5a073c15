package dist_test

import (
	"fmt"

	"airshed/internal/dist"
	"airshed/internal/machine"
)

// The LA concentration array redistributed from the chemistry distribution
// to replicated (the aerosol step's all-gather), priced with the paper's
// measured T3E parameters.
func ExampleNewPlan() {
	sh := dist.Shape{Species: 35, Layers: 5, Cells: 700} // A(35,5,700)
	plan, err := dist.NewPlan(sh, dist.DChem, dist.DRepl, 8, 8)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan)
	fmt.Printf("worst node: %.2f ms\n", 1000*plan.MaxCost(machine.CrayT3E()))
	// Output:
	// A(*,*,BLOCK) -> A(*,*,*) on 8 nodes: 56 msgs, 6860000 bytes moved, 980000 bytes copied
	// worst node: 24.54 ms
}

// The most work any one node holds in each Airshed phase (paper
// Section 4.1): transport splits the 5 layers and chemistry the 700 grid
// cells, so transport stops getting faster past P=5.
func ExampleBlockSize() {
	for _, p := range []int{4, 64, 1024} {
		fmt.Printf("P=%4d: transport %d layer(s)/node, chemistry %d cells/node\n",
			p, dist.BlockSize(5, p), dist.BlockSize(700, p))
	}
	// Output:
	// P=   4: transport 2 layer(s)/node, chemistry 175 cells/node
	// P=  64: transport 1 layer(s)/node, chemistry 11 cells/node
	// P=1024: transport 1 layer(s)/node, chemistry 1 cells/node
}
