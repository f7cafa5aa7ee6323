package core

import (
	"context"
	"reflect"
	"testing"
)

// seqInit returns an n-dim feasible start with all mass on variable 0.
func seqInit(n int) []float64 {
	init := make([]float64, n)
	init[0] = 1
	return init
}

// TestRunWithScratchMatchesRun requires byte-identical results from the
// scratch-reusing path and plain Run across configurations — fixed α,
// dynamic α, adaptive decay — and across repeated reuse of one scratch,
// including runs of different dimensions through the same scratch.
func TestRunWithScratchMatchesRun(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		obj  Objective
		init []float64
		opts []Option
	}{
		{"fixed-alpha", quad{n: 8}, seqInit(8), []Option{WithAlpha(0.01), WithEpsilon(1e-9)}},
		{"dynamic-alpha", quad{n: 8}, seqInit(8), []Option{WithAlpha(0.001), WithEpsilon(1e-9), WithDynamicAlpha(0.5)}},
		{"adaptive", quad{n: 6}, seqInit(6), []Option{WithAlpha(0.02), WithEpsilon(1e-9), WithAdaptiveAlpha(1e-12)}},
		{"smaller-dim-after-larger", quad{n: 4}, seqInit(4), []Option{WithAlpha(0.05), WithEpsilon(1e-9)}},
		{"kkt-check", quad{n: 8}, seqInit(8), []Option{WithAlpha(0.01), WithEpsilon(1e-9), WithKKTCheck()}},
	}
	scratch := NewScratch() // one scratch reused across all cases
	for _, tc := range cases {
		alloc, err := NewAllocator(tc.obj, tc.opts...)
		if err != nil {
			t.Fatalf("%s: NewAllocator: %v", tc.name, err)
		}
		want, err := alloc.Run(ctx, tc.init)
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		for rep := 0; rep < 3; rep++ { // reuse must not drift
			got, err := alloc.RunWithScratch(ctx, tc.init, scratch)
			if err != nil {
				t.Fatalf("%s rep %d: RunWithScratch: %v", tc.name, rep, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s rep %d: RunWithScratch diverged from Run:\n run:     %+v\n scratch: %+v",
					tc.name, rep, want, got)
			}
		}
	}
}

// TestRunWithScratchNilScratch pins the nil-scratch convenience: it must
// behave exactly like Run.
func TestRunWithScratchNilScratch(t *testing.T) {
	obj := quad{n: 8}
	alloc, err := NewAllocator(obj, WithAlpha(0.01), WithEpsilon(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := alloc.Run(ctx, seqInit(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := alloc.RunWithScratch(ctx, seqInit(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("nil scratch diverged from Run:\n run: %+v\n nil: %+v", want, got)
	}
}

// TestRunWithScratchResultAliasesScratch documents the aliasing contract:
// the next run through the same scratch overwrites the previous Result.X,
// so retaining callers must copy.
func TestRunWithScratchResultAliasesScratch(t *testing.T) {
	obj := quad{n: 8}
	alloc, err := NewAllocator(obj, WithAlpha(0.01), WithEpsilon(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := NewScratch()
	first, err := alloc.RunWithScratch(ctx, seqInit(8), s)
	if err != nil {
		t.Fatal(err)
	}
	retained := first.X
	snapshot := append([]float64(nil), retained...)
	// A second run from a different start must overwrite the retained
	// slice — that is the point of the scratch.
	other := make([]float64, 8)
	for i := range other {
		other[i] = 1.0 / 8
	}
	if _, err := alloc.RunWithScratch(ctx, other, s); err != nil {
		t.Fatal(err)
	}
	if &retained[0] != &s.x[0] {
		t.Fatalf("Result.X does not alias the scratch buffer")
	}
	_ = snapshot // the copy is how a caller would retain the first result
}

// TestRunWithScratchSteadyStateAllocFree extends the zero-allocation
// discipline across whole solves: once the scratch is warm, a full
// RunWithScratch — feasibility check, gradient evaluations, step
// planning, application, termination test — performs zero heap
// allocations, for the fixed-α and the dynamic-α configuration.
func TestRunWithScratchSteadyStateAllocFree(t *testing.T) {
	obj := quad{n: 16}
	init := seqInit(16)
	ctx := context.Background()
	configs := []struct {
		name string
		opts []Option
	}{
		{"fixed-alpha", []Option{WithAlpha(0.001), WithEpsilon(1e-12), WithMaxIterations(60)}},
		{"dynamic-alpha", []Option{WithAlpha(0.0001), WithEpsilon(1e-12), WithDynamicAlpha(0.001), WithMaxIterations(60)}},
	}
	for _, cfg := range configs {
		alloc, err := NewAllocator(obj, cfg.opts...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		s := NewScratch()
		// Warm-up sizes every buffer.
		if _, err := alloc.RunWithScratch(ctx, init, s); err != nil {
			t.Fatalf("%s: warm-up: %v", cfg.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := alloc.RunWithScratch(ctx, init, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm RunWithScratch allocated %.1f objects per solve, want 0", cfg.name, allocs)
		}
	}
}

// TestRunWithScratchRejectsInfeasible keeps the validation path intact
// through the scratch refactor.
func TestRunWithScratchRejectsInfeasible(t *testing.T) {
	obj := quad{n: 4}
	alloc, err := NewAllocator(obj, WithAlpha(0.01))
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{0.5, -0.5, 0.5, 0.5}
	if _, err := alloc.RunWithScratch(context.Background(), bad, NewScratch()); err == nil {
		t.Error("negative allocation accepted")
	}
	short := []float64{1, 0}
	if _, err := alloc.RunWithScratch(context.Background(), short, NewScratch()); err == nil {
		t.Error("wrong-dimension allocation accepted")
	}
}
