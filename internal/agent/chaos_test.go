package agent

import (
	"context"
	"errors"
	"testing"
	"time"

	"filealloc/internal/transport"
)

// The chaos suite's contract, for every fault class and both modes: the
// runtime either converges to the fault-free allocation or fails loudly
// with ErrRoundTimeout — it never hangs and never silently diverges —
// and the observer/fault counters account for the injected faults.

// chaosModes names the two aggregation schemes under test.
var chaosModes = []Mode{Broadcast, Coordinator}

func runChaosCluster(t *testing.T, mode Mode, faults *transport.FaultConfig, obs Observer, retries int, timeout time.Duration) (ClusterResult, error) {
	t.Helper()
	m := fig3Model(t)
	return RunCluster(context.Background(), ClusterConfig{
		Agent: Config{
			Alpha:        0.3,
			Epsilon:      1e-3,
			MaxRounds:    500,
			Mode:         mode,
			SendRetries:  retries,
			RoundTimeout: timeout,
			Observer:     obs,
		},
		Models: ModelsFromSingleFile(m),
		Init:   []float64{0.8, 0.1, 0.1, 0},
		Faults: faults,
	})
}

// faultFree returns the mode's allocation over a clean network.
func faultFree(t *testing.T, mode Mode) ClusterResult {
	t.Helper()
	res, err := runChaosCluster(t, mode, nil, nil, 0, 0)
	if err != nil {
		t.Fatalf("fault-free %v run: %v", mode, err)
	}
	if !res.Converged {
		t.Fatalf("fault-free %v run did not converge", mode)
	}
	return res
}

// assertSameAllocation requires bit-identical results: the faults below
// only delay, repeat, or reorder data — they never alter it — so the
// deterministic trajectory must be unchanged.
func assertSameAllocation(t *testing.T, mode Mode, got, want ClusterResult) {
	t.Helper()
	if !got.Converged {
		t.Fatalf("%v: run under faults did not converge", mode)
	}
	if got.Rounds != want.Rounds {
		t.Errorf("%v: rounds = %d, fault-free %d", mode, got.Rounds, want.Rounds)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Errorf("%v: X[%d] = %v, fault-free %v", mode, i, got.X[i], want.X[i])
		}
	}
}

func TestChaosDropConvergesWithRetries(t *testing.T) {
	for _, mode := range chaosModes {
		want := faultFree(t, mode)
		obs := &CounterObserver{}
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.2,
			}},
		}
		res, err := runChaosCluster(t, mode, faults, obs, 25, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assertSameAllocation(t, mode, res, want)
		if res.Faults.SendDropped == 0 {
			t.Errorf("%v: no drops injected at p=0.2", mode)
		}
		// Every injected drop was observed as exactly one send retry —
		// the counters account for each fault.
		if got := obs.Counters().SendRetries; got != res.Faults.SendDropped {
			t.Errorf("%v: observer saw %d retries for %d injected drops", mode, got, res.Faults.SendDropped)
		}
	}
}

func TestChaosDelayConverges(t *testing.T) {
	for _, mode := range chaosModes {
		want := faultFree(t, mode)
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDelay, Direction: transport.DirSend,
				Probability: 0.3, Delay: 2 * time.Millisecond,
			}},
		}
		res, err := runChaosCluster(t, mode, faults, nil, 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assertSameAllocation(t, mode, res, want)
		if res.Faults.SendDelayed == 0 {
			t.Errorf("%v: no delays injected at p=0.3", mode)
		}
	}
}

func TestChaosDuplicateConverges(t *testing.T) {
	for _, mode := range chaosModes {
		want := faultFree(t, mode)
		obs := &CounterObserver{}
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDuplicate, Direction: transport.DirSend, Probability: 0.3,
			}},
		}
		res, err := runChaosCluster(t, mode, faults, obs, 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assertSameAllocation(t, mode, res, want)
		if res.Faults.SendDuplicated == 0 {
			t.Errorf("%v: no duplicates injected at p=0.3", mode)
		}
		// Each extra copy is discarded at most once (copies still queued
		// at convergence go unread); none may corrupt the round data.
		if got := obs.Counters().Discarded; got > res.Faults.SendDuplicated {
			t.Errorf("%v: %d discards for %d injected duplicates", mode, got, res.Faults.SendDuplicated)
		}
	}
}

func TestChaosReorderConverges(t *testing.T) {
	for _, mode := range chaosModes {
		want := faultFree(t, mode)
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultReorder, Direction: transport.DirRecv,
				Probability: 0.5, Delay: 3 * time.Millisecond,
			}},
		}
		res, err := runChaosCluster(t, mode, faults, nil, 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assertSameAllocation(t, mode, res, want)
		// With p=0.5 across hundreds of messages some adjacent pairs
		// must have swapped; the round buffers absorb them all.
		if res.Faults.RecvReordered == 0 {
			t.Errorf("%v: no reorders recorded at p=0.5", mode)
		}
	}
}

func TestChaosPartitionFailsLoudly(t *testing.T) {
	// Node 3 is black-holed from round 2 onward: its sends report
	// success but vanish. No retry budget can cross a partition, so the
	// run must end in ErrRoundTimeout — promptly, never a hang, never a
	// silently wrong allocation.
	for _, mode := range chaosModes {
		obs := &CounterObserver{}
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultPartition, Direction: transport.DirSend,
				Nodes: []int{3}, FromRound: 2,
			}},
		}
		start := time.Now()
		res, err := runChaosCluster(t, mode, faults, obs, 0, 400*time.Millisecond)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrRoundTimeout) {
			t.Fatalf("%v: error = %v, want ErrRoundTimeout", mode, err)
		}
		if elapsed > 10*time.Second {
			t.Errorf("%v: partition took %v to surface", mode, elapsed)
		}
		if res.Faults.SendPartitioned == 0 {
			t.Errorf("%v: partition rule never fired", mode)
		}
		c := obs.Counters()
		if c.TimeoutsFired == 0 {
			t.Errorf("%v: no observer timeout for a partitioned round", mode)
		}
		if c.ReportsMissing == 0 && mode == Broadcast {
			t.Errorf("%v: no short report collection observed", mode)
		}
	}
}

func TestChaosFullPartitionFailsLoudly(t *testing.T) {
	// Every node loses every link from round 1: the whole cluster must
	// time out, not deadlock.
	for _, mode := range chaosModes {
		faults := &transport.FaultConfig{
			Seed: 1986,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultPartition, Direction: transport.DirSend, FromRound: 1,
			}},
		}
		_, err := runChaosCluster(t, mode, faults, nil, 0, 400*time.Millisecond)
		if !errors.Is(err, ErrRoundTimeout) {
			t.Fatalf("%v: error = %v, want ErrRoundTimeout", mode, err)
		}
	}
}

// TestChaosOverTCP composes the fault wrapper over real TCP endpoints:
// lossy links plus retries still reproduce the fault-free allocation.
func TestChaosOverTCP(t *testing.T) {
	m := fig3Model(t)
	want := faultFree(t, Broadcast)
	res, err := RunCluster(context.Background(), ClusterConfig{
		Agent:     Config{Alpha: 0.3, Epsilon: 1e-3, Mode: Broadcast, SendRetries: 25},
		Models:    ModelsFromSingleFile(m),
		Init:      []float64{0.8, 0.1, 0.1, 0},
		Endpoints: loopbackEndpoints(t, 4),
		Faults: &transport.FaultConfig{
			Seed: 7,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.15,
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.SendDropped == 0 {
		t.Error("no drops injected over TCP at p=0.15")
	}
	for i, out := range res.Outcomes {
		if !out.Converged {
			t.Fatalf("node %d did not converge", i)
		}
		if out.X != want.X[i] {
			t.Errorf("node %d: X = %v, fault-free %v", i, out.X, want.X[i])
		}
	}
}
