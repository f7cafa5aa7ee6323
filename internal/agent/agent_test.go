package agent

import (
	"context"
	"errors"
	"math"
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
			Agent:  Config{Alpha: alpha, Epsilon: 1e-3, Mode: Broadcast},
			Models: ModelsFromSingleFile(m),
			Init:   init,
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
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, Mode: Coordinator, CoordinatorID: 2},
		Models: ModelsFromSingleFile(m),
		Init:   init,
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
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, Mode: Broadcast},
		Models: ModelsFromSingleFile(m), Init: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := RunCluster(context.Background(), ClusterConfig{
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, Mode: Coordinator},
		Models: ModelsFromSingleFile(m), Init: init,
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

// loopbackEndpoints binds an n-node loopback TCP cluster that is closed
// when the test ends.
func loopbackEndpoints(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	eps, err := transport.ListenLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := transport.CloseAll(eps); err != nil {
			t.Error(err)
		}
	})
	return eps
}

func TestClusterOverTCP(t *testing.T) {
	// The same protocol over real TCP sockets on loopback: in both modes
	// the run is bit-identical to the in-memory one.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central := runCentral(t, m, init, 0.3, 1e-3)
	for _, mode := range []Mode{Broadcast, Coordinator} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := ClusterConfig{
				Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, Mode: mode},
				Models: ModelsFromSingleFile(m),
				Init:   init,
			}
			mem, err := RunCluster(context.Background(), cfg)
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			cfg.Endpoints = loopbackEndpoints(t, len(init))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tcp, err := RunCluster(ctx, cfg)
			if err != nil {
				t.Fatalf("tcp: %v", err)
			}
			if !tcp.Converged {
				t.Error("tcp cluster did not converge")
			}
			if tcp.Rounds != mem.Rounds || tcp.Messages != mem.Messages {
				t.Errorf("tcp: %d rounds, %d messages; memory: %d rounds, %d messages", tcp.Rounds, tcp.Messages, mem.Rounds, mem.Messages)
			}
			for i, x := range tcp.X {
				if x != central.X[i] || x != mem.X[i] {
					t.Errorf("node %d: tcp x = %v, memory %v, central %v", i, x, mem.X[i], central.X[i])
				}
			}
		})
	}
}

func TestClusterSurvivesCancellation(t *testing.T) {
	m := fig3Model(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCluster(ctx, ClusterConfig{
		Agent:  Config{Alpha: 0.0001}, // would need many rounds
		Models: ModelsFromSingleFile(m),
		Init:   []float64{0.8, 0.1, 0.1, 0},
	})
	if err == nil {
		t.Error("expected error from canceled cluster")
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
		Agent:  Config{Epsilon: 1e-6, SecondOrder: true},
		Models: ModelsFromSingleFile(m),
		Init:   init,
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
}

func TestClusterSurvivesLossyNetworkWithRetries(t *testing.T) {
	// 20% message loss; with retries the protocol completes and still
	// matches the centralized trajectory exactly.
	m := fig3Model(t)
	init := []float64{0.8, 0.1, 0.1, 0}
	central := runCentral(t, m, init, 0.3, 1e-3)
	res, err := RunCluster(context.Background(), ClusterConfig{
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, SendRetries: 20},
		Models: ModelsFromSingleFile(m),
		Init:   init,
		Faults: &transport.FaultConfig{
			Seed: 99,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.2,
			}},
		},
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
	// cluster errors instead of hanging. Nodes whose own sends all got
	// through wait out the round timeout for the dead node's report.
	m := fig3Model(t)
	_, err := RunCluster(context.Background(), ClusterConfig{
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, RoundTimeout: 500 * time.Millisecond},
		Models: ModelsFromSingleFile(m),
		Init:   []float64{0.8, 0.1, 0.1, 0},
		Faults: &transport.FaultConfig{
			Seed: 7,
			Rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.5,
			}},
		},
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
	// Every bad shape is rejected before a node starts: the Run hook and
	// the observer must stay untouched.
	models := make([]LocalModel, 3)
	init := []float64{0.5, 0.5, 0}
	tcp := loopbackEndpoints(t, 3)
	tests := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"single node", ClusterConfig{Models: []LocalModel{{AccessCost: 1, ServiceRate: 2, Lambda: 1}}, Init: []float64{1}}},
		{"length mismatch", ClusterConfig{Models: models, Init: []float64{1}}},
		{"short alive set", ClusterConfig{Agent: Config{Quorum: 2}, Models: models, Init: init, InitAlive: []bool{true, true}}},
		{"endpoint count", ClusterConfig{Models: models, Init: init, Endpoints: tcp[:2]}},
		{"endpoint order", ClusterConfig{Models: models, Init: init, Endpoints: []transport.Endpoint{tcp[1], tcp[0], tcp[2]}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obs := &CounterObserver{}
			tt.cfg.Agent.Observer = obs
			tt.cfg.Run = func(context.Context, Config) (Outcome, error) {
				t.Error("a node started")
				return Outcome{}, nil
			}
			if _, err := RunCluster(context.Background(), tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
			if got := obs.Counters().RecoveryByKind; len(got) != 0 {
				t.Errorf("recovery events %v before validation", got)
			}
		})
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
