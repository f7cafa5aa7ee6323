package agent

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// fig3Model builds the paper's experimental system: 4-node unit ring,
// μ = 1.5, λ = 1, k = 1.
func fig3Model(t *testing.T) *costmodel.SingleFile {
	t.Helper()
	ring, err := topology.Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	access, err := topology.AccessCosts(ring, topology.UniformRates(4, 1), topology.RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	m, err := costmodel.NewSingleFile(access, []float64{1.5}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLocalModelMarginalMatchesObjective(t *testing.T) {
	m := fig3Model(t)
	models := ModelsFromSingleFile(m)
	x := []float64{0.8, 0.1, 0.1, 0}
	grad := make([]float64, 4)
	if err := m.Gradient(grad, x); err != nil {
		t.Fatal(err)
	}
	for i, lm := range models {
		got, err := lm.Marginal(x[i])
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if math.Abs(got-grad[i]) > 1e-15 {
			t.Errorf("node %d marginal = %g, objective gradient %g", i, got, grad[i])
		}
	}
	if _, err := models[0].Marginal(2); !errors.Is(err, core.ErrUnstable) {
		t.Errorf("saturated marginal error = %v, want ErrUnstable", err)
	}
}

// runCentral runs the in-process Allocator for trajectory comparison.
func runCentral(t *testing.T, m *costmodel.SingleFile, init []float64, alpha, eps float64) core.Result {
	t.Helper()
	alloc, err := core.NewAllocator(m, core.WithAlpha(alpha), core.WithEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	res, err := alloc.Run(context.Background(), init)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBroadcastClusterMatchesCentralizedExactly(t *testing.T) {
	// E9's core claim: the decentralized protocol computes bit-identical
	// allocations to the in-process solver.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	for _, alpha := range []float64{0.3, 0.08} {
		central := runCentral(t, m, init, alpha, 1e-3)
		res, err := RunCluster(context.Background(), ClusterConfig{
			Models:  ModelsFromSingleFile(m),
			Init:    init,
			Alpha:   alpha,
			Epsilon: 1e-3,
			Mode:    Broadcast,
		})
		if err != nil {
			t.Fatalf("alpha %g: RunCluster: %v", alpha, err)
		}
		if !res.Converged {
			t.Fatalf("alpha %g: cluster did not converge (%d rounds)", alpha, res.Rounds)
		}
		if res.Rounds != central.Iterations {
			t.Errorf("alpha %g: rounds %d vs central iterations %d", alpha, res.Rounds, central.Iterations)
		}
		for i := range res.X {
			if res.X[i] != central.X[i] {
				t.Errorf("alpha %g: x[%d] = %v vs central %v (must be bit-identical)", alpha, i, res.X[i], central.X[i])
			}
		}
	}
}

func TestCoordinatorClusterMatchesCentralized(t *testing.T) {
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central := runCentral(t, m, init, 0.3, 1e-3)
	res, err := RunCluster(context.Background(), ClusterConfig{
		Models:        ModelsFromSingleFile(m),
		Init:          init,
		Alpha:         0.3,
		Epsilon:       1e-3,
		Mode:          Coordinator,
		CoordinatorID: 2,
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge (%d rounds)", res.Rounds)
	}
	if res.Rounds != central.Iterations {
		t.Errorf("rounds %d vs central iterations %d", res.Rounds, central.Iterations)
	}
	for i := range res.X {
		if res.X[i] != central.X[i] {
			t.Errorf("x[%d] = %v vs central %v", i, res.X[i], central.X[i])
		}
	}
}

func TestMessageCountsBroadcastVsCoordinator(t *testing.T) {
	// Broadcast: n(n−1) messages per round. Coordinator: 2(n−1) per
	// round. Same trajectory, different communication bill — the paper's
	// section 5.1 comparison of the two schemes.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	bro, err := RunCluster(context.Background(), ClusterConfig{
		Models: ModelsFromSingleFile(m), Init: init, Alpha: 0.3, Epsilon: 1e-3, Mode: Broadcast,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := RunCluster(context.Background(), ClusterConfig{
		Models: ModelsFromSingleFile(m), Init: init, Alpha: 0.3, Epsilon: 1e-3, Mode: Coordinator,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	// Rounds counted: convergence is detected one round after the last
	// re-allocation, and that detection round also exchanges messages.
	wantBro := (bro.Rounds + 1) * n * (n - 1)
	if bro.Messages != wantBro {
		t.Errorf("broadcast messages = %d, want %d", bro.Messages, wantBro)
	}
	wantCoord := (coord.Rounds + 1) * 2 * (n - 1)
	if coord.Messages != wantCoord {
		t.Errorf("coordinator messages = %d, want %d", coord.Messages, wantCoord)
	}
	if coord.Messages >= bro.Messages {
		t.Errorf("coordinator (%d) should use fewer messages than broadcast (%d)", coord.Messages, bro.Messages)
	}
}

func TestClusterOverTCP(t *testing.T) {
	// The same protocol over real TCP sockets on loopback.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	n := 4

	// Bind all endpoints on ephemeral ports, then exchange the address
	// book.
	eps := make([]*transport.TCPEndpoint, n)
	placeholder := make([]string, n)
	for i := range placeholder {
		placeholder[i] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		ep, err := transport.ListenTCP(i, placeholder)
		if err != nil {
			t.Fatalf("ListenTCP(%d): %v", i, err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := eps[i].SetPeerAddr(j, eps[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}

	models := ModelsFromSingleFile(m)
	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], errs[i] = Run(ctx, Config{
				Endpoint: eps[i],
				Model:    models[i],
				Init:     init[i],
				Alpha:    0.3,
				Epsilon:  1e-3,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	central := runCentral(t, m, init, 0.3, 1e-3)
	for i, out := range outcomes {
		if !out.Converged {
			t.Errorf("node %d did not converge", i)
		}
		if out.X != central.X[i] {
			t.Errorf("node %d: x = %v vs central %v", i, out.X, central.X[i])
		}
	}
}

func TestClusterSurvivesCancellation(t *testing.T) {
	m := fig3Model(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCluster(ctx, ClusterConfig{
		Models: ModelsFromSingleFile(m),
		Init:   []float64{0.8, 0.1, 0.1, 0},
		Alpha:  0.0001, // would need many rounds
	})
	if err == nil {
		t.Error("expected error from canceled cluster")
	}
}

func TestDynamicAlphaClusterMatchesCentralized(t *testing.T) {
	// With curvature exchanged each round, the whole cluster evaluates
	// the identical Theorem-2 stepsize — and must track the centralized
	// dynamic-α solver bit for bit.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central, err := core.NewAllocator(m,
		core.WithAlpha(0.1),
		core.WithEpsilon(1e-6),
		core.WithDynamicAlpha(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	centralRes, err := central.Run(context.Background(), init)
	if err != nil {
		t.Fatal(err)
	}
	if !centralRes.Converged {
		t.Fatalf("central dynamic-α did not converge: %v", centralRes.Reason)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Models:             ModelsFromSingleFile(m),
		Init:               init,
		Alpha:              0.1,
		Epsilon:            1e-6,
		DynamicAlphaSafety: 0.5,
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge (%d rounds)", res.Rounds)
	}
	if res.Rounds != centralRes.Iterations {
		t.Errorf("rounds %d vs central iterations %d", res.Rounds, centralRes.Iterations)
	}
	for i := range res.X {
		if res.X[i] != centralRes.X[i] {
			t.Errorf("x[%d] = %v vs central %v (must be bit-identical)", i, res.X[i], centralRes.X[i])
		}
	}
}

func TestLocalModelCurvatureMatchesObjective(t *testing.T) {
	m := fig3Model(t)
	models := ModelsFromSingleFile(m)
	x := []float64{0.8, 0.1, 0.1, 0}
	hess := make([]float64, 4)
	if err := m.SecondDerivative(hess, x); err != nil {
		t.Fatal(err)
	}
	for i, lm := range models {
		got, err := lm.Curvature(x[i])
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got != hess[i] {
			t.Errorf("node %d curvature = %v, objective %v", i, got, hess[i])
		}
	}
	if _, err := models[0].Curvature(2); !errors.Is(err, core.ErrUnstable) {
		t.Errorf("saturated curvature error = %v, want ErrUnstable", err)
	}
}

func TestDynamicAlphaRequiresBroadcast(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, _ := net.Endpoint(0)
	_, err = Run(context.Background(), Config{
		Endpoint:           ep,
		Model:              LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:               0.5,
		Mode:               Coordinator,
		DynamicAlphaSafety: 0.5,
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v, want ErrBadConfig", err)
	}
}

func TestSecondOrderClusterMatchesCentralized(t *testing.T) {
	// The decentralized curvature-scaled step must track the in-process
	// second-order solver bit for bit.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central, err := core.NewAllocator(m, core.WithSecondOrder(), core.WithEpsilon(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	centralRes, err := central.Run(context.Background(), init)
	if err != nil {
		t.Fatal(err)
	}
	if !centralRes.Converged {
		t.Fatalf("central second-order did not converge: %v", centralRes.Reason)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Models:      ModelsFromSingleFile(m),
		Init:        init,
		Epsilon:     1e-6,
		SecondOrder: true,
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge (%d rounds)", res.Rounds)
	}
	if res.Rounds != centralRes.Iterations {
		t.Errorf("rounds %d vs central iterations %d", res.Rounds, centralRes.Iterations)
	}
	for i := range res.X {
		if res.X[i] != centralRes.X[i] {
			t.Errorf("x[%d] = %v vs central %v (must be bit-identical)", i, res.X[i], centralRes.X[i])
		}
	}
	// Second order on this problem needs markedly fewer rounds than
	// figure 3's first-order α=0.3 run.
	if res.Rounds >= 9 {
		t.Errorf("second-order rounds = %d, expected < 9", res.Rounds)
	}
}

func TestSecondOrderConfigValidation(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, _ := net.Endpoint(0)
	base := Config{
		Endpoint: ep,
		Model:    LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:     0.5,
	}
	coord := base
	coord.SecondOrder = true
	coord.Mode = Coordinator
	coord.CoordinatorID = 1
	if _, err := Run(context.Background(), coord); !errors.Is(err, ErrBadConfig) {
		t.Errorf("second order + coordinator: error = %v", err)
	}
	both := base
	both.SecondOrder = true
	both.DynamicAlphaSafety = 0.5
	if _, err := Run(context.Background(), both); !errors.Is(err, ErrBadConfig) {
		t.Errorf("second order + dynamic alpha: error = %v", err)
	}
}

func TestClusterSurvivesLossyNetworkWithRetries(t *testing.T) {
	// 20% message loss; with retries the protocol completes and still
	// matches the centralized trajectory exactly.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central := runCentral(t, m, init, 0.3, 1e-3)
	res, err := RunCluster(context.Background(), ClusterConfig{
		Models:      ModelsFromSingleFile(m),
		Init:        init,
		Alpha:       0.3,
		Epsilon:     1e-3,
		SendRetries: 20,
		DropRate:    0.2,
		DropSeed:    99,
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Converged {
		t.Fatalf("lossy cluster did not converge (%d rounds)", res.Rounds)
	}
	for i := range res.X {
		if res.X[i] != central.X[i] {
			t.Errorf("x[%d] = %v vs central %v", i, res.X[i], central.X[i])
		}
	}
}

func TestClusterFailsFastOnLossWithoutRetries(t *testing.T) {
	// Without retries a 50%-loss network kills a send quickly; the
	// cluster errors instead of hanging.
	m := fig3Model(t)
	_, err := RunCluster(context.Background(), ClusterConfig{
		Models:   ModelsFromSingleFile(m),
		Init:     []float64{0.8, 0.1, 0.1, 0},
		Alpha:    0.3,
		Epsilon:  1e-3,
		DropRate: 0.5,
		DropSeed: 7,
	})
	if !errors.Is(err, transport.ErrDropped) {
		t.Errorf("error = %v, want wrapped ErrDropped", err)
	}
}

func TestAgentTimeoutOnSilentPeer(t *testing.T) {
	// One agent alone in a 2-node network: its round can never complete.
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Config{
		Endpoint:     ep,
		Model:        LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:         0.5,
		RoundTimeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, ErrRoundTimeout) {
		t.Errorf("error = %v, want ErrRoundTimeout", err)
	}
}

func TestConfigValidation(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, _ := net.Endpoint(0)
	good := Config{Endpoint: ep, Model: LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1}, Init: 0.5}
	tests := []struct {
		name string
		fn   func(Config) Config
	}{
		{"nil endpoint", func(c Config) Config { c.Endpoint = nil; return c }},
		{"negative alpha", func(c Config) Config { c.Alpha = -1; return c }},
		{"negative epsilon", func(c Config) Config { c.Epsilon = -1; return c }},
		{"negative rounds", func(c Config) Config { c.MaxRounds = -1; return c }},
		{"bad mode", func(c Config) Config { c.Mode = Mode(9); return c }},
		{"bad coordinator", func(c Config) Config { c.Mode = Coordinator; c.CoordinatorID = 9; return c }},
		{"negative init", func(c Config) Config { c.Init = -0.5; return c }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tt.fn(good)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(context.Background(), ClusterConfig{
		Models: []LocalModel{{AccessCost: 1, ServiceRate: 2, Lambda: 1}},
		Init:   []float64{1},
	}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("single node: error = %v, want ErrBadConfig", err)
	}
	if _, err := RunCluster(context.Background(), ClusterConfig{
		Models: make([]LocalModel, 3),
		Init:   []float64{1},
	}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("length mismatch: error = %v, want ErrBadConfig", err)
	}
}

func TestModeString(t *testing.T) {
	if Broadcast.String() != "broadcast" || Coordinator.String() != "coordinator" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode formatting wrong")
	}
}
