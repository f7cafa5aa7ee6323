package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/recovery"
	"filealloc/internal/transport"
)

// ChurnRow reports one crash/churn scenario of the chaos-churn experiment:
// the figure-3 system run through the supervised agent runtime with crash
// faults, quorum rounds, and membership churn.
type ChurnRow struct {
	// Scenario names the injected failure pattern.
	Scenario string
	// Converged reports the surviving nodes hit the ε-criterion.
	Converged bool
	// Rounds is the survivors' agreed round count.
	Rounds int
	// Survivors is how many nodes finished without error.
	Survivors int
	// Restarts is the total number of supervised restarts across
	// survivors.
	Restarts int
	// Crashes is the number of injected crash faults that tripped.
	Crashes int64
	// Departs and Rejoins count the membership-churn recovery events.
	Departs int64
	Rejoins int64
	// MaxKKTGap is max_i |x_i − x_i*| against the exact KKT optimum of
	// the reduced (survivors-only) system.
	MaxKKTGap float64
	// SumError is |Σ_{i∈survivors} x_i − 1|, the Theorem-1 residual.
	SumError float64
}

// churnScenario is one failure pattern of the chaos-churn matrix.
type churnScenario struct {
	name   string
	faults transport.FaultConfig
	// maxRestarts overrides the supervisor budget when non-zero
	// (negative forbids restarts, modelling permanent death).
	maxRestarts int
	// timeout overrides RoundTimeout (0 keeps the default).
	timeout time.Duration
	// deadNode is the node expected to fail (-1: everyone survives),
	// and deadErr the typed error it must fail with.
	deadNode int
	deadErr  error
}

func churnScenarios() []churnScenario {
	return []churnScenario{
		{
			name: "crash-resume",
			faults: transport.FaultConfig{Rules: []transport.FaultRule{{
				Kind: transport.FaultCrash, Direction: transport.DirSend,
				Nodes: []int{2}, FromRound: 5, ToRound: 5,
			}}},
			deadNode: -1,
		},
		{
			name: "double-crash",
			faults: transport.FaultConfig{Rules: []transport.FaultRule{
				{Kind: transport.FaultCrash, Direction: transport.DirSend, Nodes: []int{1}, FromRound: 4, ToRound: 4},
				{Kind: transport.FaultCrash, Direction: transport.DirSend, Nodes: []int{2}, FromRound: 7, ToRound: 7},
			}},
			deadNode: -1,
		},
		{
			name: "crash-depart",
			faults: transport.FaultConfig{Rules: []transport.FaultRule{{
				Kind: transport.FaultCrash, Direction: transport.DirSend,
				Nodes: []int{3}, FromRound: 4,
			}}},
			maxRestarts: -1,
			timeout:     200 * time.Millisecond,
			deadNode:    3,
			deadErr:     recovery.ErrRestartBudget,
		},
		{
			name: "partition-depart",
			faults: transport.FaultConfig{Rules: []transport.FaultRule{{
				Kind: transport.FaultPartition, Direction: transport.DirBoth,
				Nodes: []int{1}, FromRound: 6,
			}}},
			timeout:  200 * time.Millisecond,
			deadNode: 1,
			deadErr:  agent.ErrRoundTimeout,
		},
	}
}

// churnBase assembles the matrix's shared cluster configuration over the
// figure-3 system and its supervisor policy.
func churnBase(m *costmodel.SingleFile, counters *agent.CounterObserver, obs agent.Observer, reg *metrics.Registry) (agent.ClusterConfig, recovery.SupervisorConfig) {
	var shared agent.Observer = counters
	if obs != nil {
		shared = agent.MultiObserver{counters, obs}
	}
	if reg != nil {
		shared = agent.MultiObserver{shared, agent.NewMetricsObserver(reg)}
	}
	cfg := agent.ClusterConfig{
		Agent: agent.Config{
			Alpha:       0.3,
			Epsilon:     Epsilon,
			MaxRounds:   500,
			Quorum:      3,
			DepartAfter: 2,
			Observer:    shared,
		},
		Models:  agent.ModelsFromSingleFile(m),
		Init:    PaperStart(4),
		Metrics: reg,
	}
	sup := recovery.SupervisorConfig{
		MaxRestarts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Seed:        1986,
	}
	return cfg, sup
}

// reducedKKTGap certifies a surviving allocation against the exact KKT
// optimum of the reduced (survivors-only) system and returns the largest
// per-fragment gap plus the Σx−1 residual.
func reducedKKTGap(m *costmodel.SingleFile, x []float64, alive []bool) (gap, sumErr float64, err error) {
	var access, service, xRed []float64
	for i := range alive {
		if alive[i] {
			access = append(access, m.AccessCost(i))
			service = append(service, m.ServiceRate(i))
			xRed = append(xRed, x[i])
		} else if x[i] != 0 {
			return 0, 0, fmt.Errorf("departed node %d still holds x = %v", i, x[i])
		}
	}
	reduced, err := costmodel.NewSingleFile(access, service, m.Lambda(), m.K())
	if err != nil {
		return 0, 0, fmt.Errorf("building reduced model: %w", err)
	}
	sol, err := reduced.SolveKKT(1e-10)
	if err != nil {
		return 0, 0, fmt.Errorf("solving reduced KKT: %w", err)
	}
	if err := reduced.VerifyKKT(xRed, sol.Q, 0.02); err != nil {
		return 0, 0, fmt.Errorf("KKT certification: %w", err)
	}
	var sum float64
	for i := range xRed {
		if d := math.Abs(xRed[i] - sol.X[i]); d > gap {
			gap = d
		}
		sum += xRed[i]
	}
	return gap, math.Abs(sum - 1), nil
}

// churnRow distills one scenario's result into a row and enforces the
// chaos-churn contract: the survivors converged and their allocation is
// KKT-certified on the surviving support with Σx pinned to 1.
func churnRow(name string, m *costmodel.SingleFile, res recovery.ChurnResult, c agent.Counters) (ChurnRow, error) {
	row := ChurnRow{
		Scenario:  name,
		Converged: res.Converged,
		Rounds:    res.Rounds,
		Survivors: len(res.Survivors),
		Crashes:   res.Faults.Crashes,
		Departs:   c.RecoveryByKind["depart"],
		Rejoins:   c.RecoveryByKind["rejoin"],
	}
	for _, s := range res.Survivors {
		row.Restarts += res.Restarts[s]
	}
	if !res.Converged {
		return row, fmt.Errorf("%w: %s: survivors did not converge", ErrExperiment, name)
	}
	gap, sumErr, err := reducedKKTGap(m, res.X, res.Alive)
	if err != nil {
		return row, fmt.Errorf("%w: %s: %w", ErrExperiment, name, err)
	}
	row.MaxKKTGap, row.SumError = gap, sumErr
	if sumErr > 1e-12 {
		return row, fmt.Errorf("%w: %s: Σx drifted by %g", ErrExperiment, name, sumErr)
	}
	return row, nil
}

// ChaosChurn runs the figure-3 system through the crash-recovery matrix:
// supervised restart with checkpoint resume, permanent death with
// feasibility-preserving departure, partition-induced departure, and an
// epoch-2 rejoin. Every scenario must either converge to the KKT-certified
// optimum of its surviving support or fail its dead node with the expected
// typed error; anything else is reported as an error. obs additionally
// receives every agent event (may be nil). reg, when non-nil, collects the
// full metrics surface of the run — agent observer metrics, metered
// transport counters and byte histograms, and published fault counters —
// and because every numeric path is round-indexed rather than wall-clock
// driven, the resulting snapshot is identical from run to run.
func ChaosChurn(ctx context.Context, obs agent.Observer, reg *metrics.Registry) ([]ChurnRow, error) {
	m, err := RingSystem(4, 1)
	if err != nil {
		return nil, err
	}
	var rows []ChurnRow
	for _, sc := range churnScenarios() {
		counters := &agent.CounterObserver{}
		cfg, sup := churnBase(m, counters, obs, reg)
		cfg.Faults = &sc.faults
		if sc.maxRestarts != 0 {
			sup.MaxRestarts = sc.maxRestarts
		}
		if sc.timeout > 0 {
			cfg.Agent.RoundTimeout = sc.timeout
		}
		res, err := recovery.RunChurnCluster(ctx, cfg, sup)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrExperiment, sc.name, err)
		}
		for i, e := range res.Errs {
			switch {
			case i == sc.deadNode:
				if !errors.Is(e, sc.deadErr) {
					return nil, fmt.Errorf("%w: %s: node %d error = %v, want %v", ErrExperiment, sc.name, i, e, sc.deadErr)
				}
			case e != nil:
				return nil, fmt.Errorf("%w: %s: node %d unexpectedly failed: %w", ErrExperiment, sc.name, i, e)
			}
		}
		row, err := churnRow(sc.name, m, res, counters.Counters())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// depart-rejoin: replay the crash-departure epoch, then re-admit the
	// dead node with a zero fragment and let it climb back in.
	counters := &agent.CounterObserver{}
	cfg, sup := churnBase(m, counters, obs, reg)
	sup.MaxRestarts = -1
	cfg.Agent.RoundTimeout = 200 * time.Millisecond
	cfg.Faults = &transport.FaultConfig{Rules: []transport.FaultRule{{
		Kind: transport.FaultCrash, Direction: transport.DirSend,
		Nodes: []int{3}, FromRound: 4,
	}}}
	epoch1, err := recovery.RunChurnCluster(ctx, cfg, sup)
	if err != nil {
		return nil, fmt.Errorf("%w: depart-rejoin epoch 1: %w", ErrExperiment, err)
	}
	if !epoch1.Converged || epoch1.Alive[3] {
		return nil, fmt.Errorf("%w: depart-rejoin epoch 1: converged=%t alive[3]=%t", ErrExperiment, epoch1.Converged, epoch1.Alive[3])
	}
	init2, alive2, err := recovery.RejoinInit(epoch1.X, epoch1.Alive, 3)
	if err != nil {
		return nil, fmt.Errorf("%w: depart-rejoin: %w", ErrExperiment, err)
	}
	cfg2, sup2 := churnBase(m, counters, obs, reg)
	cfg2.Init = init2
	cfg2.InitAlive = alive2
	epoch2, err := recovery.RunChurnCluster(ctx, cfg2, sup2)
	if err != nil {
		return nil, fmt.Errorf("%w: depart-rejoin epoch 2: %w", ErrExperiment, err)
	}
	for i, e := range epoch2.Errs {
		if e != nil {
			return nil, fmt.Errorf("%w: depart-rejoin epoch 2: node %d failed: %w", ErrExperiment, i, e)
		}
	}
	if epoch2.X[3] <= 0 {
		return nil, fmt.Errorf("%w: depart-rejoin: rejoiner never climbed back in (x[3] = %v)", ErrExperiment, epoch2.X[3])
	}
	row, err := churnRow("depart-rejoin", m, epoch2, counters.Counters())
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}
