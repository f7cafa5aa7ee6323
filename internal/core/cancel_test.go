package core_test

import (
	"context"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// TestCancelFromTraceStopsAtIteration pins where a cancellation lands:
// a context canceled from the trace hook of iteration k stops the solve
// before iteration k+1 plans a step, with StopCanceled, Iterations == k
// and no error. It covers the first-order and second-order cold solves
// and the warm phase of a WarmSolver.
func TestCancelFromTraceStopsAtIteration(t *testing.T) {
	const k = 2
	model, err := costmodel.NewSingleFile([]float64{2, 1, 3, 2}, []float64{1.5}, 1, 1)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	init := []float64{1, 0, 0, 0}
	cases := []struct {
		name string
		opts []core.Option
		warm bool
	}{
		{name: "first order", opts: []core.Option{core.WithAlpha(0.1)}},
		{name: "second order", opts: []core.Option{core.WithSecondOrder()}},
		{name: "warm", opts: []core.Option{core.WithSecondOrder()}, warm: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			solve := func(ctx context.Context, trace func(core.Iteration)) core.Result {
				t.Helper()
				opts := append([]core.Option{core.WithEpsilon(1e-9), core.WithTrace(trace)}, tc.opts...)
				alloc, err := core.NewAllocator(model, opts...)
				if err != nil {
					t.Fatalf("NewAllocator: %v", err)
				}
				var res core.Result
				if tc.warm {
					warm, err := core.NewWarmSolver(alloc, core.WarmConfig{MaxSteps: 1000})
					if err != nil {
						t.Fatalf("NewWarmSolver: %v", err)
					}
					var fellBack bool
					res, fellBack, err = warm.SolveWarm(ctx, init, core.NewScratch())
					if err == nil && fellBack {
						t.Fatalf("warm solve fell back: %+v", res)
					}
				} else {
					res, err = alloc.Solve(ctx, init, core.NewScratch())
				}
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				return res
			}

			// Uncanceled, the solve runs past iteration k.
			if full := solve(context.Background(), func(core.Iteration) {}); !full.Converged || full.Iterations <= k {
				t.Fatalf("uncanceled solve: %d iterations, converged %v; want more than %d", full.Iterations, full.Converged, k)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res := solve(ctx, func(it core.Iteration) {
				if it.Index == k {
					cancel()
				}
			})
			if res.Reason != core.StopCanceled || res.Iterations != k || res.Converged {
				t.Errorf("canceled at iteration %d: reason %v after %d iterations (converged %v), want canceled after %d",
					k, res.Reason, res.Iterations, res.Converged, k)
			}
		})
	}
}
