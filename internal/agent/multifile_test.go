package agent

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// twoFileModel builds a 4-node star system with a hot and a cold file.
func twoFileModel(t *testing.T) *costmodel.MultiFile {
	t.Helper()
	star, err := topology.Star(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := topology.AccessCosts(star, topology.UniformRates(4, 1), topology.RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := topology.AccessCosts(star, topology.UniformRates(4, 0.4), topology.RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	m, err := costmodel.NewMultiFile([][]float64{hot, cold}, []float64{2.5},
		[]float64{1, 0.4}, 1, costmodel.ShareWeights)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiFileLocalMarginalsMatchObjective(t *testing.T) {
	m := twoFileModel(t)
	models := MultiFileModelsFrom(m)
	x := []float64{0.4, 0.2, 0.2, 0.2 /* hot */, 0.1, 0.3, 0.3, 0.3 /* cold */}
	grad := make([]float64, m.Dim())
	if err := m.Gradient(grad, x); err != nil {
		t.Fatal(err)
	}
	for i, lm := range models {
		local, err := lm.Marginals([]float64{x[m.Index(0, i)], x[m.Index(1, i)]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for f := 0; f < 2; f++ {
			if math.Abs(local[f]-grad[m.Index(f, i)]) > 1e-15 {
				t.Errorf("node %d file %d: local %g vs objective %g", i, f, local[f], grad[m.Index(f, i)])
			}
		}
	}
	if _, err := models[0].Marginals([]float64{3, 3}); !errors.Is(err, core.ErrUnstable) {
		t.Errorf("saturated marginals error = %v, want ErrUnstable", err)
	}
	if _, err := models[0].Marginals([]float64{1}); !errors.Is(err, core.ErrDimension) {
		t.Errorf("short fragment vector error = %v, want ErrDimension", err)
	}
}

func TestMultiFileClusterMatchesCentralizedExactly(t *testing.T) {
	m := twoFileModel(t)
	n := m.Nodes()
	// Initial allocation: hot file piled on node 1, cold file uniform.
	initMatrix := [][]float64{
		{0, 1, 0, 0},
		{0.25, 0.25, 0.25, 0.25},
	}
	flat := make([]float64, m.Dim())
	for f := 0; f < 2; f++ {
		for i := 0; i < n; i++ {
			flat[m.Index(f, i)] = initMatrix[f][i]
		}
	}
	central, err := core.NewAllocator(m, core.WithAlpha(0.1), core.WithEpsilon(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	centralRes, err := central.Run(context.Background(), flat)
	if err != nil {
		t.Fatal(err)
	}
	if !centralRes.Converged {
		t.Fatalf("central solver did not converge: %+v", centralRes.Reason)
	}

	net, err := transport.NewMemoryNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	models := MultiFileModelsFrom(m)
	outcomes := make([]MultiFileOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			outcomes[i], errs[i] = RunMultiFile(context.Background(), MultiFileAgentConfig{
				Endpoint: ep,
				Model:    models[i],
				Init:     []float64{initMatrix[0][i], initMatrix[1][i]},
				Alpha:    0.1,
				Epsilon:  1e-4,
			})
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	for i, out := range outcomes {
		if !out.Converged {
			t.Errorf("agent %d did not converge", i)
		}
		if out.Rounds != centralRes.Iterations {
			t.Errorf("agent %d: %d rounds vs central %d", i, out.Rounds, centralRes.Iterations)
		}
		for f := 0; f < 2; f++ {
			if out.X[f] != centralRes.X[m.Index(f, i)] {
				t.Errorf("agent %d file %d: %v vs central %v (must be bit-identical)",
					i, f, out.X[f], centralRes.X[m.Index(f, i)])
			}
		}
	}
	// Per-file conservation across the cluster.
	for f := 0; f < 2; f++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += outcomes[i].X[f]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("file %d total = %g, want 1", f, sum)
		}
	}
}

func TestRunMultiFileValidation(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, _ := net.Endpoint(0)
	good := MultiFileAgentConfig{
		Endpoint: ep,
		Model: MultiFileLocalModel{
			AccessCosts: []float64{1, 2},
			ServiceRate: 3,
			FileRates:   []float64{1, 0.5},
			Weights:     []float64{1, 1},
			K:           1,
		},
		Init: []float64{0.5, 0.5},
	}
	tests := []struct {
		name string
		fn   func(MultiFileAgentConfig) MultiFileAgentConfig
	}{
		{"nil endpoint", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Endpoint = nil; return c }},
		{"shape mismatch", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Model.FileRates = []float64{1}; return c }},
		{"bad init length", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Init = []float64{1}; return c }},
		{"negative init", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Init = []float64{-1, 2}; return c }},
		{"negative alpha", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Alpha = -1; return c }},
		{"negative epsilon", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.Epsilon = -1; return c }},
		{"negative rounds", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.MaxRounds = -1; return c }},
		{"negative retries", func(c MultiFileAgentConfig) MultiFileAgentConfig { c.SendRetries = -1; return c }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunMultiFile(context.Background(), tt.fn(good)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

// runTwoFileCluster runs the two-file cluster from an uneven start over a
// memory network, every endpoint wrapped in faults when set, and returns
// each agent's outcome and the injected-fault totals.
func runTwoFileCluster(t *testing.T, obs Observer, faults *transport.FaultConfig, retries int) ([]MultiFileOutcome, transport.FaultStats) {
	t.Helper()
	m := twoFileModel(t)
	n := m.Nodes()
	net, err := transport.NewMemoryNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	models := MultiFileModelsFrom(m)
	outcomes := make([]MultiFileOutcome, n)
	errs := make([]error, n)
	feps := make([]*transport.FaultEndpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var ep transport.Endpoint
		if ep, err = net.Endpoint(i); err != nil {
			t.Fatal(err)
		}
		if faults != nil {
			if feps[i], err = transport.NewFaultEndpoint(ep, *faults); err != nil {
				t.Fatal(err)
			}
			ep = feps[i]
		}
		init := []float64{0, 0.25}
		if i == 1 {
			init[0] = 1
		}
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			outcomes[i], errs[i] = RunMultiFile(context.Background(), MultiFileAgentConfig{
				Endpoint:    ep,
				Model:       models[i],
				Init:        init,
				Alpha:       0.1,
				Epsilon:     1e-4,
				SendRetries: retries,
				Observer:    obs,
			})
		}(i, ep)
	}
	wg.Wait()
	var stats transport.FaultStats
	for _, fep := range feps {
		if fep != nil {
			stats.Add(fep.Stats())
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return outcomes, stats
}

func TestMultiFileRunIsObservable(t *testing.T) {
	// A multi-file run reports the same round events as a single-file
	// one: every node finishes, and applies one step per round.
	obs := &CounterObserver{}
	outcomes, _ := runTwoFileCluster(t, obs, nil, 0)
	n := int64(len(outcomes))
	rounds := int64(outcomes[0].Rounds)
	c := obs.Counters()
	if c.RunsFinished != n || c.RunsConverged != n {
		t.Errorf("RunsFinished = %d, RunsConverged = %d, want %d", c.RunsFinished, c.RunsConverged, n)
	}
	if c.StepsApplied != n*rounds {
		t.Errorf("StepsApplied = %d, want %d nodes × %d rounds", c.StepsApplied, n, rounds)
	}
	if c.StepsPlanned != n*(rounds+1) {
		t.Errorf("StepsPlanned = %d, want %d nodes × %d rounds", c.StepsPlanned, n, rounds+1)
	}

	// Under message loss every injected drop shows up as one retry.
	lossy := &CounterObserver{}
	faults := &transport.FaultConfig{
		Seed: 1986,
		Rules: []transport.FaultRule{{
			Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.2,
		}},
	}
	lossyOut, stats := runTwoFileCluster(t, lossy, faults, 25)
	if stats.SendDropped == 0 {
		t.Fatal("no drops injected at p=0.2")
	}
	if got := lossy.Counters().SendRetries; got != stats.SendDropped {
		t.Errorf("observer saw %d retries for %d injected drops", got, stats.SendDropped)
	}
	for i := range outcomes {
		for f := range outcomes[i].X {
			if lossyOut[i].X[f] != outcomes[i].X[f] {
				t.Errorf("agent %d file %d: %v under loss vs %v", i, f, lossyOut[i].X[f], outcomes[i].X[f])
			}
		}
	}
}
