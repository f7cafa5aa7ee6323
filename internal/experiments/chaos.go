package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/sweep"
	"filealloc/internal/transport"
)

// ChaosRow reports one fault scenario of the chaos experiment: the
// figure-3 system run through the agent runtime with a fault-injection
// transport, in one aggregation mode.
type ChaosRow struct {
	// Scenario names the injected fault class.
	Scenario string
	// Mode is "broadcast" or "coordinator".
	Mode string
	// Converged reports the ε-criterion fired despite the faults.
	Converged bool
	// TimedOut reports the run failed loudly with ErrRoundTimeout (the
	// expected outcome for partitions).
	TimedOut bool
	// Rounds of the protocol (0 when the run timed out).
	Rounds int
	// Messages sent in total.
	Messages int
	// FaultsInjected is the total number of fault events across all
	// endpoints.
	FaultsInjected int64
	// SendRetries and Discarded count the recovery work the runtime did,
	// as seen by the observer.
	SendRetries int64
	Discarded   int64
	// Timeouts counts observer timeout events.
	Timeouts int64
	// MaxAllocationDiff is max_i |x_i^{faulty} − x_i^{central}|. The
	// injected faults only delay, repeat, or reorder data — they never
	// alter it — so a converged run must report exactly 0.
	MaxAllocationDiff float64
}

// chaosScenario is one fault class to push the runtime through.
type chaosScenario struct {
	name string
	// faults is nil for the clean baseline.
	faults *transport.FaultConfig
	// retries is the per-send retry budget.
	retries int
	// timeout overrides RoundTimeout (0 keeps the default).
	timeout time.Duration
	// wantTimeout marks scenarios that must end in ErrRoundTimeout.
	wantTimeout bool
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "clean"},
		{
			name: "drop",
			faults: &transport.FaultConfig{
				Seed: 1986,
				Rules: []transport.FaultRule{{
					Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.2,
				}},
			},
			retries: 25,
		},
		{
			name: "delay",
			faults: &transport.FaultConfig{
				Seed: 1986,
				Rules: []transport.FaultRule{{
					Kind: transport.FaultDelay, Direction: transport.DirSend,
					Probability: 0.3, Delay: 2 * time.Millisecond,
				}},
			},
		},
		{
			name: "duplicate",
			faults: &transport.FaultConfig{
				Seed: 1986,
				Rules: []transport.FaultRule{{
					Kind: transport.FaultDuplicate, Direction: transport.DirSend, Probability: 0.3,
				}},
			},
		},
		{
			name: "reorder",
			faults: &transport.FaultConfig{
				Seed: 1986,
				Rules: []transport.FaultRule{{
					Kind: transport.FaultReorder, Direction: transport.DirRecv,
					Probability: 0.5, Delay: 3 * time.Millisecond,
				}},
			},
		},
		{
			name: "partition",
			faults: &transport.FaultConfig{
				Seed: 1986,
				Rules: []transport.FaultRule{{
					Kind: transport.FaultPartition, Direction: transport.DirSend,
					Nodes: []int{3}, FromRound: 2,
				}},
			},
			timeout:     400 * time.Millisecond,
			wantTimeout: true,
		},
	}
}

// Chaos runs the figure-3 system under every fault class in both
// aggregation modes and verifies the runtime's chaos contract: it either
// converges to the fault-free allocation (bit-identical — the faults never
// alter data) or fails loudly with a round timeout. Any other outcome —
// a hang, a silent divergence, an unexpected error — is reported as an
// error. obs additionally receives every agent event (may be nil); because
// the (mode, scenario) matrix runs concurrently (see WorkersFrom), obs
// must be safe for concurrent use when parallelism is enabled.
func Chaos(ctx context.Context, obs agent.Observer) ([]ChaosRow, error) {
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

	scenarios := chaosScenarios()
	modes := []agent.Mode{agent.Broadcast, agent.Coordinator}
	// The (mode, scenario) matrix is flattened into one sweep; each cell
	// owns its cluster and fault injector and writes its row into the slot
	// the serial double loop would have filled. The counter observer is
	// per-worker scratch, reset between the cells a worker claims.
	rows := make([]ChaosRow, len(modes)*len(scenarios))
	err = sweep.RunWithScratch(ctx, len(rows), sweep.WorkersFrom(ctx),
		func() *agent.CounterObserver { return &agent.CounterObserver{} },
		func(ctx context.Context, idx int, counters *agent.CounterObserver) error {
			mode := modes[idx/len(scenarios)]
			sc := scenarios[idx%len(scenarios)]
			counters.Reset()
			var shared agent.Observer = counters
			if obs != nil {
				shared = agent.MultiObserver{counters, obs}
			}
			res, err := agent.RunCluster(ctx, agent.ClusterConfig{
				Agent: agent.Config{
					Alpha:        0.3,
					Epsilon:      Epsilon,
					MaxRounds:    500,
					Mode:         mode,
					SendRetries:  sc.retries,
					RoundTimeout: sc.timeout,
					Observer:     shared,
				},
				Models: agent.ModelsFromSingleFile(m),
				Init:   start,
				Faults: sc.faults,
			})
			c := counters.Counters()
			row := ChaosRow{
				Scenario:       sc.name,
				Mode:           mode.String(),
				Rounds:         res.Rounds,
				Messages:       res.Messages,
				FaultsInjected: res.Faults.Total(),
				SendRetries:    c.SendRetries,
				Discarded:      c.Discarded,
				Timeouts:       c.TimeoutsFired,
			}
			switch {
			case sc.wantTimeout:
				if !errors.Is(err, agent.ErrRoundTimeout) {
					return fmt.Errorf("%w: %s/%v: error = %v, want round timeout", ErrExperiment, sc.name, mode, err)
				}
				row.TimedOut = true
			case err != nil:
				return fmt.Errorf("%w: %s/%v cluster: %w", ErrExperiment, sc.name, mode, err)
			default:
				if !res.Converged {
					return fmt.Errorf("%w: %s/%v did not converge", ErrExperiment, sc.name, mode)
				}
				row.Converged = true
				for i := range res.X {
					if d := math.Abs(res.X[i] - centralRes.X[i]); d > row.MaxAllocationDiff {
						row.MaxAllocationDiff = d
					}
				}
				if row.MaxAllocationDiff != 0 {
					return fmt.Errorf("%w: %s/%v silently diverged by %g", ErrExperiment, sc.name, mode, row.MaxAllocationDiff)
				}
			}
			rows[idx] = row
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
