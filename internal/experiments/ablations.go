package experiments

import (
	"context"
	"fmt"
	"math"

	"filealloc/internal/agent"
	"filealloc/internal/baseline"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/sweep"
)

// SecondOrderRow compares the first- and second-derivative algorithms at
// one cost scale (experiment E8, section 8.2's pilot study).
type SecondOrderRow struct {
	// Scale multiplies all communication costs and k.
	Scale float64
	// FirstOrderIterations at the fixed stepsize (−1 when it failed to
	// converge within the budget).
	FirstOrderIterations int
	// SecondOrderIterations at α = 1.
	SecondOrderIterations int
}

// AblationSecondOrder demonstrates the scale-resilience claim: as the cost
// scale grows, the first-order algorithm at a fixed α slows down and
// eventually diverges (its stability window shrinks like 1/scale), while
// the curvature-normalized second-order algorithm is unaffected.
func AblationSecondOrder(ctx context.Context, scales []float64) ([]SecondOrderRow, error) {
	if len(scales) == 0 {
		scales = []float64{1, 2, 5, 10, 100}
	}
	const alpha = 0.3 // tuned for scale 1 (figure 3's good choice)
	rows := make([]SecondOrderRow, len(scales))
	err := sweep.RunWithScratch(ctx, len(scales), sweep.WorkersFrom(ctx), core.NewScratch, func(ctx context.Context, i int, scratch *core.Scratch) error {
		scale := scales[i]
		start := []float64{0.7, 0.1, 0.1, 0.1}
		access := []float64{2 * scale, 1 * scale, 3 * scale, 2 * scale}
		m, err := costmodel.NewSingleFile(access, []float64{Mu}, Lambda, K*scale)
		if err != nil {
			return fmt.Errorf("%w: building scale-%v model: %w", ErrExperiment, scale, err)
		}
		row := SecondOrderRow{Scale: scale, FirstOrderIterations: -1}

		// ε must track the utility scale for a fair comparison.
		eps := Epsilon * scale
		first, err := core.NewAllocator(m, core.WithAlpha(alpha), core.WithEpsilon(eps), core.WithMaxIterations(5000))
		if err != nil {
			return fmt.Errorf("%w: first-order at scale %v: %w", ErrExperiment, scale, err)
		}
		if res, err := first.RunWithScratch(ctx, start, scratch); err == nil && res.Converged {
			row.FirstOrderIterations = res.Iterations
		}

		second, err := core.NewAllocator(m, core.WithSecondOrder(), core.WithEpsilon(eps), core.WithMaxIterations(5000))
		if err != nil {
			return fmt.Errorf("%w: second-order at scale %v: %w", ErrExperiment, scale, err)
		}
		res, err := second.RunWithScratch(ctx, start, scratch)
		if err != nil {
			return fmt.Errorf("%w: second-order run at scale %v: %w", ErrExperiment, scale, err)
		}
		if !res.Converged {
			return fmt.Errorf("%w: second-order failed to converge at scale %v", ErrExperiment, scale)
		}
		row.SecondOrderIterations = res.Iterations
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// DecentralizedRow compares the decentralized protocol against the
// in-process solver (experiment E9).
type DecentralizedRow struct {
	// Mode is "broadcast" or "coordinator".
	Mode string
	// Rounds of the protocol.
	Rounds int
	// CentralIterations of the in-process solver.
	CentralIterations int
	// Messages sent in total.
	Messages int
	// MaxAllocationDiff is max_i |x_i^{distributed} − x_i^{central}|
	// (0 when bit-identical).
	MaxAllocationDiff float64
	// Converged reports the protocol's ε-criterion fired.
	Converged bool
}

// AblationDecentralized runs the figure-3 system through the agent runtime
// in both aggregation modes and reports trajectory equality and message
// bills. obs receives every agent event (may be nil); the two modes run
// concurrently (see WorkersFrom), so a non-nil obs must be safe for
// concurrent use when parallelism is enabled.
func AblationDecentralized(ctx context.Context, obs agent.Observer) ([]DecentralizedRow, error) {
	m, err := RingSystem(4, 1)
	if err != nil {
		return nil, err
	}
	start := PaperStart(4)
	central, err := core.NewAllocator(m, core.WithAlpha(0.3), core.WithEpsilon(Epsilon))
	if err != nil {
		return nil, fmt.Errorf("%w: central solver: %w", ErrExperiment, err)
	}
	centralRes, err := central.Run(ctx, start)
	if err != nil {
		return nil, fmt.Errorf("%w: central run: %w", ErrExperiment, err)
	}

	modes := []agent.Mode{agent.Broadcast, agent.Coordinator}
	rows := make([]DecentralizedRow, len(modes))
	err = sweep.Run(ctx, len(modes), sweep.WorkersFrom(ctx), func(ctx context.Context, i int) error {
		mode := modes[i]
		res, err := agent.RunCluster(ctx, agent.ClusterConfig{
			Models:   agent.ModelsFromSingleFile(m),
			Init:     start,
			Alpha:    0.3,
			Epsilon:  Epsilon,
			Mode:     mode,
			Observer: obs,
		})
		if err != nil {
			return fmt.Errorf("%w: %v cluster: %w", ErrExperiment, mode, err)
		}
		var maxDiff float64
		for j := range res.X {
			if d := math.Abs(res.X[j] - centralRes.X[j]); d > maxDiff {
				maxDiff = d
			}
		}
		rows[i] = DecentralizedRow{
			Mode:              mode.String(),
			Rounds:            res.Rounds,
			CentralIterations: centralRes.Iterations,
			Messages:          res.Messages,
			MaxAllocationDiff: maxDiff,
			Converged:         res.Converged,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PriceDirectedReport contrasts the two microeconomic mechanisms of
// section 2 (experiment E10).
type PriceDirectedReport struct {
	// PriceIterations until the market cleared.
	PriceIterations int
	// PriceWorstInfeasibility is the largest |Σ demand − 1| over the
	// tâtonnement's iterates: the price-directed drawback.
	PriceWorstInfeasibility float64
	// PriceCost is the cleared allocation's cost.
	PriceCost float64
	// ResourceIterations of the resource-directed algorithm.
	ResourceIterations int
	// ResourceWorstInfeasibility over its iterates (provably 0).
	ResourceWorstInfeasibility float64
	// ResourceCost at convergence.
	ResourceCost float64
	// ResourceMonotone reports whether every iterate improved on its
	// predecessor (Theorem 2's property; the tâtonnement offers no such
	// guarantee).
	ResourceMonotone bool
}

// AblationPriceDirected runs both mechanisms on an asymmetric 4-node
// system and measures feasibility along the way.
func AblationPriceDirected(ctx context.Context) (PriceDirectedReport, error) {
	access := []float64{2, 1, 3, 2}
	m, err := costmodel.NewSingleFile(access, []float64{Mu}, Lambda, K)
	if err != nil {
		return PriceDirectedReport{}, fmt.Errorf("%w: building model: %w", ErrExperiment, err)
	}
	report := PriceDirectedReport{}

	price, err := baseline.PriceDirected(m, baseline.PriceDirectedConfig{
		Gamma: 0.5, Tolerance: 1e-9, MaxIterations: 100000, KeepTrace: true,
	})
	if err != nil {
		return PriceDirectedReport{}, fmt.Errorf("%w: tâtonnement: %w", ErrExperiment, err)
	}
	report.PriceIterations = price.Iterations
	report.PriceCost = price.Cost
	for _, it := range price.Trace {
		if d := math.Abs(it.Excess); d > report.PriceWorstInfeasibility {
			report.PriceWorstInfeasibility = d
		}
	}

	var worst float64
	monotone := true
	prevCost := math.Inf(1)
	alloc, err := core.NewAllocator(m,
		core.WithAlpha(0.3),
		core.WithEpsilon(Epsilon),
		core.WithTrace(func(it core.Iteration) {
			var sum float64
			for _, v := range it.X {
				sum += v
			}
			if d := math.Abs(sum - 1); d > worst {
				worst = d
			}
			cost := -it.Utility
			if cost > prevCost+1e-12 {
				monotone = false
			}
			prevCost = cost
		}),
	)
	if err != nil {
		return PriceDirectedReport{}, fmt.Errorf("%w: resource-directed solver: %w", ErrExperiment, err)
	}
	res, err := alloc.Run(ctx, baseline.Uniform(4))
	if err != nil {
		return PriceDirectedReport{}, fmt.Errorf("%w: resource-directed run: %w", ErrExperiment, err)
	}
	report.ResourceIterations = res.Iterations
	report.ResourceWorstInfeasibility = worst
	report.ResourceCost = -res.Utility
	report.ResourceMonotone = monotone
	return report, nil
}
