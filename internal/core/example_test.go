package core_test

import (
	"context"
	"fmt"
	"log"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// ExampleAllocator runs the paper's algorithm on the figure-3 system with
// α = 0.3, reproducing its ~10-iteration convergence to the uniform
// optimum.
func ExampleAllocator() {
	// 4 nodes with equal access costs C_i = 2 (the unit ring), μ = 1.5,
	// λ = 1, k = 1.
	model, err := costmodel.NewSingleFile([]float64{2, 2, 2, 2}, []float64{1.5}, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := core.NewAllocator(model,
		core.WithAlpha(0.3),
		core.WithEpsilon(1e-3),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alloc.Run(context.Background(), []float64{0.8, 0.1, 0.1, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged after %d iterations to %.2f (cost %.2f)\n",
		res.Iterations, res.X, -res.Utility)
	// Output:
	// converged after 9 iterations to [0.25 0.25 0.25 0.25] (cost 2.80)
}

// ExamplePlanStepInto shows one raw re-allocation step: resource flows
// from below-average to above-average marginal utility, zero-sum.
func ExamplePlanStepInto() {
	x := []float64{0.5, 0.3, 0.2}
	grad := []float64{-3, -2, -1} // variable 2 is most valuable
	var step core.Step
	spread, moves, err := core.PlanStepInto(&step, x, grad, nil, []int{0, 1, 2}, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deltas: %.2f, spread %g, moves %v\n", step.Delta, spread, moves)
	// Output:
	// deltas: [-0.10 0.00 0.10], spread 2, moves true
}
