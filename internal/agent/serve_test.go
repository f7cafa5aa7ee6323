package agent

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"filealloc/internal/loadgen"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// testReplanConfig builds a ReplanConfig over n identical nodes with unit
// access-cost spread: every origin pays 1+i to access node i.
func testReplanConfig(n int, mu float64) ReplanConfig {
	mus := make([]float64, n)
	pair := make([][]float64, n)
	for j := range pair {
		mus[j] = mu
		pair[j] = make([]float64, n)
		for i := range pair[j] {
			pair[j][i] = 1 + float64(i)
		}
	}
	return ReplanConfig{Pair: pair, Mu: mus, K: 1}
}

func TestReplanProducesCertifiedPlan(t *testing.T) {
	rc := testReplanConfig(3, 20)
	rates := []float64{2, 2, 2}
	prev := make([]float64, 3)
	alive := []bool{true, true, true}
	pr, err := rc.Replan(context.Background(), rates, prev, alive)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !pr.Certified {
		t.Fatal("plan not KKT-certified")
	}
	if pr.FellBack {
		t.Log("warm budget exhausted; cold fallback used (allowed)")
	}
	sum := 0.0
	for _, x := range pr.X {
		if x < 0 {
			t.Fatalf("negative allocation %v", pr.X)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("allocation sums to %v, want 1", sum)
	}
	if pr.Lambda != 6 {
		t.Fatalf("lambda = %v, want 6", pr.Lambda)
	}
}

func TestReplanRestrictsToAliveSupport(t *testing.T) {
	rc := testReplanConfig(3, 20)
	rates := []float64{2, 2, 2}
	prev := []float64{0.4, 0.3, 0.3}
	alive := []bool{true, false, true}
	pr, err := rc.Replan(context.Background(), rates, prev, alive)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !pr.Certified {
		t.Fatal("degraded plan not certified")
	}
	if pr.X[1] != 0 {
		t.Fatalf("dead node allocated %v", pr.X[1])
	}
	sum := pr.X[0] + pr.X[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("surviving allocation sums to %v, want 1", sum)
	}
}

func TestReplanWarmStartReusesPreviousPlan(t *testing.T) {
	rc := testReplanConfig(3, 20)
	rates := []float64{2, 2, 2}
	alive := []bool{true, true, true}
	prevZero := make([]float64, 3)
	cold, err := rc.Replan(context.Background(), rates, prevZero, alive)
	if err != nil {
		t.Fatalf("cold replan: %v", err)
	}
	// Re-solving from the optimum must converge (much) faster than the
	// capacity-proportional cold start.
	warm, err := rc.Replan(context.Background(), rates, cold.X, alive)
	if err != nil {
		t.Fatalf("warm replan: %v", err)
	}
	if !warm.Certified {
		t.Fatal("warm plan not certified")
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
}

// TestReplanRejectsMisshapenPair: a pair-cost matrix that does not match
// the cluster size is a config error, not an index panic.
func TestReplanRejectsMisshapenPair(t *testing.T) {
	rates, prev, alive := []float64{2, 2, 2}, make([]float64, 3), []bool{true, true, true}
	short := testReplanConfig(3, 20)
	short.Pair = short.Pair[:2]
	ragged := testReplanConfig(3, 20)
	ragged.Pair[1] = ragged.Pair[1][:2]
	for _, rc := range []ReplanConfig{short, ragged} {
		if _, err := rc.Replan(context.Background(), rates, prev, alive); !errors.Is(err, ErrServe) {
			t.Errorf("pair rows %d: error = %v, want ErrServe", len(rc.Pair), err)
		}
	}
}

// newTestReplanner builds a Replanner over testReplanConfig(3, mu) whose
// epoch-1 plan is solved for rates {2, 2, 2} with every node alive.
func newTestReplanner(t *testing.T, mu float64, obs Observer) *Replanner {
	t.Helper()
	rp, err := NewReplanner(context.Background(), testReplanConfig(3, mu),
		[]float64{2, 2, 2}, make([]float64, 3), []bool{true, true, true}, -1, obs)
	if err != nil {
		t.Fatalf("NewReplanner: %v", err)
	}
	return rp
}

// TestReplannerStep pins the one re-plan decision: drift past
// driftThreshold on any origin, or a membership change, re-plans once the
// sensed total exceeds minLambda, and only a certified plan is adopted.
func TestReplannerStep(t *testing.T) {
	all := []bool{true, true, true}
	cases := []struct {
		name       string
		rates      []float64
		alive      []bool
		wantEpoch  int
		wantKind   string // the one event expected, "" for none
		wantReject bool
	}{
		// |2.6-2| = 0.6 is not above 0.25·2.6 = 0.65.
		{"drift just below threshold", []float64{2.6, 2, 2}, all, 1, "", false},
		// |2.7-2| = 0.7 is above 0.25·2.7 = 0.675.
		{"drift above threshold", []float64{2.7, 2, 2}, all, 2, "replan-accepted", false},
		{"membership change under minLambda", []float64{5e-4, 5e-4, 0}, []bool{true, false, true}, 1, "", false},
		{"replan error on a negative rate", []float64{-1, 2, 2}, all, 1, "replan-error", true},
		{"replan error with no node alive", []float64{2, 2, 2}, []bool{false, false, false}, 1, "replan-error", true},
		{"replan error on a NaN rate", []float64{math.NaN(), 2, 2}, all, 1, "replan-error", true},
		{"replan error on an infinite rate", []float64{math.Inf(1), 2, 2}, all, 1, "replan-error", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var obs CounterObserver
			rp := newTestReplanner(t, 20, &obs)
			before := rp.Plan()
			info := rp.Step(context.Background(), tc.rates, tc.alive)
			if info.Epoch != tc.wantEpoch || rp.Plan().Epoch != tc.wantEpoch {
				t.Fatalf("epoch: step %d, plan %d, want %d", info.Epoch, rp.Plan().Epoch, tc.wantEpoch)
			}
			if info.Rejected != tc.wantReject {
				t.Errorf("Rejected = %v, want %v", info.Rejected, tc.wantReject)
			}
			replanned := tc.wantKind == "replan-accepted"
			if info.Replanned != replanned || info.Certified != replanned {
				t.Errorf("Replanned %v, Certified %v, want both %v", info.Replanned, info.Certified, replanned)
			}
			c := obs.Counters()
			if tc.wantKind == "" {
				if c.RecoveryEvents != 0 {
					t.Fatalf("events %v, want none", c.RecoveryByKind)
				}
			} else if c.RecoveryEvents != 1 || c.RecoveryByKind[tc.wantKind] != 1 {
				t.Fatalf("events %v, want one %s", c.RecoveryByKind, tc.wantKind)
			}
			after := rp.Plan()
			if !replanned {
				if !slices.Equal(after.X, before.X) || after.Lambda != before.Lambda {
					t.Fatalf("plan moved without a re-plan: %+v -> %+v", before, after)
				}
				return
			}
			if after.Lambda != 6.7 {
				t.Errorf("adopted plan lambda = %v, want 6.7", after.Lambda)
			}
			// The baseline moved to the new rates: stepping on them again
			// sees no drift.
			if again := rp.Step(context.Background(), tc.rates, tc.alive); again.Replanned || again.Epoch != tc.wantEpoch {
				t.Errorf("second step on the adopted rates = %+v, want no re-plan", again)
			}
			if got := obs.Counters().RecoveryEvents; got != 1 {
				t.Errorf("second step emitted events: %d total", got)
			}
		})
	}
}

// TestReplannerRetriesRejectedMembershipChange: a membership re-plan that
// fails its certificate must not be recorded as the plan's membership, so
// the next step, with the same view and no drift, re-plans it.
func TestReplannerRetriesRejectedMembershipChange(t *testing.T) {
	// At μ = 4 no node can take more than 2/3 of λ = 6, so every node,
	// the one about to die included, holds part of the epoch-1 plan.
	var obs CounterObserver
	rp := newTestReplanner(t, 4, &obs)
	if x := rp.Plan().X; x[1] == 0 {
		t.Fatalf("epoch-1 plan %v leaves node 1 empty", x)
	}
	rates := []float64{2, 2, 2}
	alive := []bool{true, false, true}

	// On a cancelled context the solve stops at iteration 0, where the
	// renormalized warm start fails the certificate.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	info := rp.Step(canceled, rates, alive)
	if !info.Rejected || info.Replanned || info.Epoch != 1 {
		t.Fatalf("step on a cancelled context = %+v, want rejected at epoch 1", info)
	}
	if n := obs.Counters().RecoveryByKind["replan-uncertified"]; n != 1 {
		t.Fatalf("events %v, want one replan-uncertified", obs.Counters().RecoveryByKind)
	}
	if plan := rp.Plan(); plan.X[1] == 0 || plan.Degraded {
		t.Fatalf("rejected step changed the plan: %+v", plan)
	}

	info = rp.Step(context.Background(), rates, alive)
	if !info.Replanned || info.Epoch != 2 || !info.Degraded {
		t.Fatalf("retry = %+v, want a degraded re-plan to epoch 2", info)
	}
	if plan := rp.Plan(); plan.X[1] != 0 {
		t.Fatalf("dead node keeps %v after the retry", plan.X[1])
	}
}

// driveServer starts a Server on node 0 of a 2-node memory network and
// returns the driver endpoint (node 1).
func driveServer(t *testing.T, cfg ServerConfig) transport.Endpoint {
	t.Helper()
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	t.Cleanup(func() { _ = net.Close() })
	srvEP, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Endpoint = srvEP
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server run: %v", err)
		}
	})
	drv, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

func roundTrip(t *testing.T, ep transport.Endpoint, payload []byte) protocol.Envelope {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := ep.Send(ctx, 0, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	msg, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	env, err := protocol.Decode(msg.Payload)
	if err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return env
}

func TestServerServesAccessAndAdoptsPlans(t *testing.T) {
	drv := driveServer(t, ServerConfig{
		Node:   0,
		N:      2,
		DistTo: []float64{0, 0.5},
		Mu:     10,
		K:      1,
		InitPlan: protocol.Plan{
			Epoch: 1,
			X:     []float64{0.5, 0.5},
			Alive: []bool{true, true},
		},
	})

	// Access from origin 1: transfer 0.5 plus the unloaded waiting term
	// K/Mu = 0.1 -> 600000 microseconds.
	access, err := protocol.EncodeAccess(protocol.Access{ID: 1, Origin: 1, T: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := roundTrip(t, drv, access)
	if env.Kind != protocol.KindAccessReply {
		t.Fatalf("reply kind = %q", env.Kind)
	}
	if env.AccessReply.LatencyMicros != 600000 {
		t.Fatalf("latency = %d us, want 600000", env.AccessReply.LatencyMicros)
	}
	if env.AccessReply.Epoch != 1 {
		t.Fatalf("reply epoch = %d, want 1", env.AccessReply.Epoch)
	}

	// A newer plan is adopted and acked at its epoch.
	plan, err := protocol.EncodePlan(protocol.Plan{ID: 2, Epoch: 3, X: []float64{1, 0}, Alive: []bool{true, false}, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	env = roundTrip(t, drv, plan)
	if env.Kind != protocol.KindPlanAck || env.PlanAck.Epoch != 3 {
		t.Fatalf("plan ack = %+v, want epoch 3", env.PlanAck)
	}

	// A stale plan is still acked (at the current epoch), never an error.
	stale, err := protocol.EncodePlan(protocol.Plan{ID: 3, Epoch: 2, X: []float64{0.5, 0.5}, Alive: []bool{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	env = roundTrip(t, drv, stale)
	if env.Kind != protocol.KindPlanAck || env.PlanAck.Epoch != 3 {
		t.Fatalf("stale plan ack = %+v, want epoch 3", env.PlanAck)
	}

	// Requests routed under the old epoch are served normally; the reply
	// reports the server's (newer) epoch and degraded flag.
	staleAccess, err := protocol.EncodeAccess(protocol.Access{ID: 4, Origin: 0, T: 2, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	env = roundTrip(t, drv, staleAccess)
	if env.Kind != protocol.KindAccessReply || env.AccessReply.Err != "" {
		t.Fatalf("stale-epoch access = %+v, want served", env.AccessReply)
	}
	if !env.AccessReply.Degraded || env.AccessReply.Epoch != 3 {
		t.Fatalf("stale-epoch access reply = %+v, want degraded epoch 3", env.AccessReply)
	}

	// Pings return the sensed per-origin rates.
	ping, err := protocol.EncodePing(protocol.Ping{ID: 5, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	env = roundTrip(t, drv, ping)
	if env.Kind != protocol.KindPong || env.Pong.Epoch != 3 || len(env.Pong.Rates) != 2 {
		t.Fatalf("pong = %+v", env.Pong)
	}
}

// newTestServeCluster builds a small cluster for closed-loop tests.
func newTestServeCluster(t *testing.T, n int, seed int64) *ServeCluster {
	t.Helper()
	mu := make([]float64, n)
	rates := make([]float64, n)
	for i := range mu {
		mu[i] = 30
		rates[i] = 4
	}
	sc, err := NewServeCluster(context.Background(), ServeClusterConfig{
		N:              n,
		Mu:             mu,
		K:              1,
		InitRates:      rates,
		RequestTimeout: 500 * time.Millisecond,
		Retries:        1,
		DownAfter:      2,
		Seed:           seed,
	})
	if err != nil {
		t.Fatalf("serve cluster: %v", err)
	}
	t.Cleanup(func() {
		if err := sc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return sc
}

func TestServeClusterServesAndReplansOnDrift(t *testing.T) {
	sc := newTestServeCluster(t, 3, 1)
	ctx := context.Background()

	epoch0 := sc.ctrl.Plan().Epoch
	id := uint64(0)
	replanned := false
	for tick := 1; tick <= 8 && !replanned; tick++ {
		// All demand from origin 0 — far from the uniform InitRates.
		for i := 0; i < 20; i++ {
			id++
			out := sc.Fire(ctx, loadgen.Request{ID: id, Origin: 0, U: float64(i%10) / 10.0, U2: 0.5, T: float64(tick)})
			if !out.OK {
				t.Fatalf("tick %d request %d failed: %s", tick, i, out.ErrClass)
			}
			if out.LatencyMicros <= 0 {
				t.Fatalf("non-positive latency %d", out.LatencyMicros)
			}
		}
		info, err := sc.Tick(ctx, float64(tick), 0)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if info.Rejected {
			t.Fatalf("tick %d rejected a plan", tick)
		}
		if info.Replanned {
			if !info.Certified {
				t.Fatalf("tick %d adopted an uncertified plan", tick)
			}
			replanned = true
		}
	}
	if !replanned {
		t.Fatal("skewed demand never triggered a re-plan")
	}
	if got := sc.ctrl.Plan().Epoch; got <= epoch0 {
		t.Fatalf("epoch %d did not advance past %d", got, epoch0)
	}
}

func TestServeClusterDegradedModeAfterCrash(t *testing.T) {
	sc := newTestServeCluster(t, 3, 2)
	ctx := context.Background()

	// Warm up: a couple of ticks of uniform demand.
	id := uint64(0)
	fireTick := func(tick int) (ok, failed int) {
		for i := 0; i < 12; i++ {
			id++
			out := sc.Fire(ctx, loadgen.Request{ID: id, Origin: i % 3, U: float64(i%12) / 12.0, U2: 0.7, T: float64(tick)})
			if out.OK {
				ok++
			} else {
				failed++
			}
		}
		return ok, failed
	}
	for tick := 1; tick <= 2; tick++ {
		if _, failed := fireTick(tick); failed > 0 {
			t.Fatalf("healthy tick %d had %d failures", tick, failed)
		}
		if _, err := sc.Tick(ctx, float64(tick), 0); err != nil {
			t.Fatal(err)
		}
	}

	if err := sc.Kill(1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// With the detector not yet triggered, requests routed at node 1 fail
	// fast and must be served by the degraded fallback — zero failures.
	sawFallback := false
	degradedPlan := false
	for tick := 3; tick <= 8; tick++ {
		okBefore := id
		_ = okBefore
		ok, failed := fireTick(tick)
		if failed > 0 {
			t.Fatalf("tick %d after crash: %d/%d requests failed", tick, failed, ok+failed)
		}
		info, err := sc.Tick(ctx, float64(tick), 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.Replanned && !info.Certified {
			t.Fatalf("tick %d adopted an uncertified plan", tick)
		}
		if info.Degraded {
			degradedPlan = true
			plan := sc.ctrl.Plan()
			if plan.X[1] != 0 {
				t.Fatalf("degraded plan still allocates %v to the dead node", plan.X[1])
			}
		}
	}
	_ = sawFallback
	if !degradedPlan {
		t.Fatal("crash never produced a degraded re-plan")
	}
	if !sc.clnt.Down(1) {
		t.Fatal("failure detector never marked the crashed node down")
	}
}

// TestNewServeClusterReleasesOnError: a config that NewServeCluster
// rejects must leave nothing running — no client receive loop, no
// server — and report the failure. The invalid fault rule used to be
// caught only after the client had started, leaking its goroutine and
// the memory network.
func TestNewServeClusterReleasesOnError(t *testing.T) {
	cases := []struct {
		name string
		edit func(*ServeClusterConfig)
	}{
		{"invalid fault rule", func(c *ServeClusterConfig) {
			c.Faults = &transport.FaultConfig{Rules: []transport.FaultRule{{Kind: transport.FaultDrop, Probability: 2}}}
		}},
		{"no initial plan", func(c *ServeClusterConfig) { c.K = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ServeClusterConfig{
				N:              3,
				Mu:             []float64{30, 30, 30},
				K:              1,
				InitRates:      []float64{4, 4, 4},
				RequestTimeout: 500 * time.Millisecond,
			}
			tc.edit(&cfg)
			before := runtime.NumGoroutine()
			sc, err := NewServeCluster(context.Background(), cfg)
			if err == nil {
				_ = sc.Close()
				t.Fatal("NewServeCluster accepted the config")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines %d -> %d after the failed build (err: %v)", before, after, err)
			}
		})
	}
}
