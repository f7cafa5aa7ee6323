package recovery

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// The churn suite's contract (the tentpole acceptance criteria): every
// scenario either converges to the KKT-certified optimum on the surviving
// support or fails with a typed error — no hangs, no silent drift from
// Σx_i = 1 — and a killed-then-restarted agent resumes from its
// checkpoint onto the bit-identical trajectory of an uninterrupted run.

// ringModel builds the paper's experimental system: 4-node unit ring,
// μ = 1.5, λ = 1, k = 1 (symmetric, so the full-support optimum is
// uniform).
func ringModel(t *testing.T) *costmodel.SingleFile {
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

// churnCase is a cluster configuration plus the supervisor policy every
// node runs under.
type churnCase struct {
	agent.ClusterConfig
	Supervisor SupervisorConfig
}

// churnConfig assembles the suite's shared base configuration.
func churnConfig(t *testing.T, m *costmodel.SingleFile) churnCase {
	t.Helper()
	return churnCase{
		ClusterConfig: agent.ClusterConfig{
			Agent:  agent.Config{Alpha: 0.3, Epsilon: 1e-3, MaxRounds: 500, Quorum: 3, DepartAfter: 2},
			Models: agent.ModelsFromSingleFile(m),
			Init:   []float64{0.8, 0.1, 0.1, 0},
		},
		Supervisor: SupervisorConfig{MaxRestarts: 3, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond, Seed: 1986},
	}
}

// runChurn runs c through RunChurnCluster.
func runChurn(c churnCase) (ChurnResult, error) {
	return RunChurnCluster(context.Background(), c.ClusterConfig, c.Supervisor)
}

// assertSumInvariant requires Σ FullX = 1 on every checkpoint after the
// first full exchange — the Theorem-1 invariant across every crash,
// departure, and redistribution path.
func assertSumInvariant(t *testing.T, stores []*MemStore) {
	t.Helper()
	for node, s := range stores {
		for _, ck := range s.History() {
			if ck.Round == 0 {
				continue // round 0 precedes the first exchange
			}
			if sum := ck.SumX(); math.Abs(sum-1) > 1e-9 {
				t.Errorf("node %d round %d: Σx = %v, want 1", node, ck.Round, sum)
			}
		}
	}
}

// assertNearOptimum certifies the surviving allocation against the exact
// KKT optimum of the reduced (survivors-only) system.
func assertNearOptimum(t *testing.T, m *costmodel.SingleFile, x []float64, alive []bool) {
	t.Helper()
	var access, service []float64
	var xRed []float64
	for i := range alive {
		if alive[i] {
			access = append(access, m.AccessCost(i))
			service = append(service, m.ServiceRate(i))
			xRed = append(xRed, x[i])
		} else if x[i] != 0 {
			t.Errorf("departed node %d still holds x = %v", i, x[i])
		}
	}
	reduced, err := costmodel.NewSingleFile(access, service, m.Lambda(), m.K())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := reduced.SolveKKT(1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if err := reduced.VerifyKKT(xRed, sol.Q, 0.02); err != nil {
		t.Errorf("surviving allocation fails KKT certification: %v", err)
	}
	for i := range xRed {
		if math.Abs(xRed[i]-sol.X[i]) > 0.02 {
			t.Errorf("survivor fragment %d = %v, KKT optimum %v", i, xRed[i], sol.X[i])
		}
	}
	var sum float64
	for _, xi := range xRed {
		sum += xi
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("surviving allocation sums to %v, want 1 within 1 ulp-ish", sum)
	}
}

// TestChurnFaultFreeMatchesPlainCluster pins the churn machinery's zero
// overhead: with quorum enabled but no faults injected, every round is
// full and the trajectory is bit-identical to the plain cluster runner's.
func TestChurnFaultFreeMatchesPlainCluster(t *testing.T) {
	m := ringModel(t)
	plain, err := agent.RunCluster(context.Background(), agent.ClusterConfig{
		Agent:  agent.Config{Alpha: 0.3, Epsilon: 1e-3, MaxRounds: 500},
		Models: agent.ModelsFromSingleFile(m),
		Init:   []float64{0.8, 0.1, 0.1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runChurn(churnConfig(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != plain.Rounds {
		t.Fatalf("churn run: converged=%t rounds=%d, plain rounds=%d", res.Converged, res.Rounds, plain.Rounds)
	}
	for i := range plain.X {
		if res.X[i] != plain.X[i] {
			t.Errorf("x[%d] = %v, plain cluster %v", i, res.X[i], plain.X[i])
		}
	}
	assertSumInvariant(t, res.Stores)
}

// TestCrashResumeBitIdentical is the headline acceptance test: node 2 is
// killed mid-run, supervised-restarted, resumes from its checkpoint, and
// the cluster finishes on the bit-identical trajectory of an
// uninterrupted same-seed run — including node 2's own per-round
// checkpoint history.
func TestCrashResumeBitIdentical(t *testing.T) {
	m := ringModel(t)
	baseline, err := runChurn(churnConfig(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Converged {
		t.Fatal("baseline did not converge")
	}

	cfg := churnConfig(t, m)
	obs := &agent.CounterObserver{}
	cfg.Agent.Observer = obs
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{2}, FromRound: 5, ToRound: 5,
		}},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d failed: %v", i, e)
		}
	}
	if got := res.Restarts[2]; got != 1 {
		t.Errorf("node 2 restarts = %d, want 1", got)
	}
	if res.Faults.Crashes != 1 {
		t.Errorf("injected crashes = %d, want 1", res.Faults.Crashes)
	}
	if !res.Converged || res.Rounds != baseline.Rounds {
		t.Fatalf("crashed run: converged=%t rounds=%d, baseline rounds=%d", res.Converged, res.Rounds, baseline.Rounds)
	}
	for i := range baseline.X {
		if res.X[i] != baseline.X[i] {
			t.Errorf("x[%d] = %v, baseline %v (trajectory not bit-identical)", i, res.X[i], baseline.X[i])
		}
	}
	// Node 2's checkpoint history: round 5 appears twice (pre-crash and
	// on resume) with identical state, and every round matches the
	// uninterrupted run's checkpoint bit for bit.
	base := map[int]Checkpoint{}
	for _, ck := range baseline.Stores[2].History() {
		base[ck.Round] = ck
	}
	history := res.Stores[2].History()
	seen5 := 0
	for _, ck := range history {
		if ck.Round == 5 {
			seen5++
		}
		want, ok := base[ck.Round]
		if !ok {
			t.Errorf("node 2 checkpointed round %d absent from baseline", ck.Round)
			continue
		}
		if ck.X != want.X || ck.Planned != want.Planned {
			t.Errorf("node 2 round %d: x=%v planned=%#x, baseline x=%v planned=%#x", ck.Round, ck.X, ck.Planned, want.X, want.Planned)
		}
		for j := range want.FullX {
			if ck.FullX[j] != want.FullX[j] {
				t.Errorf("node 2 round %d: full_x[%d]=%v, baseline %v", ck.Round, j, ck.FullX[j], want.FullX[j])
			}
		}
	}
	if seen5 != 2 {
		t.Errorf("node 2 checkpointed round 5 %d times, want 2 (pre-crash + resume)", seen5)
	}
	assertSumInvariant(t, res.Stores)
	c := obs.Counters()
	for _, kind := range []string{"crash", "restart", "resume"} {
		if c.RecoveryByKind[kind] == 0 {
			t.Errorf("no %q recovery event observed", kind)
		}
	}
}

// TestCrashResumeRestoresEarlyReports forces the read-ahead race a
// checkpoint must cover: node 3's round-4 report to node 2 is held back,
// so nodes 0 and 1 finish round 4 first and node 2 reads their round-5
// reports while still collecting round 4. Node 2 then crashes on its
// first round-5 send. Those early reports are never sent again; only the
// round-5 checkpoint holds them, and the resumed run must restore them to
// finish round 5 in full, on the uninterrupted run's trajectory.
func TestCrashResumeInRoundZero(t *testing.T) {
	// Node 2 dies on its last round-0 send, after peers 0 and 1 already
	// hold its round-0 report. The round-0 checkpoint's full view is still
	// all zeros, so the resume must take its own fragment from the saved
	// X: re-sending a report with any other allocation would conflict
	// with the one the peers hold.
	m := ringModel(t)
	baseline, err := runChurn(churnConfig(t, m))
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(t, m)
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{2}, Peers: []int{3},
		}},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d failed: %v", i, e)
		}
	}
	if got := res.Restarts[2]; got != 1 {
		t.Errorf("node 2 restarts = %d, want 1", got)
	}
	if !res.Converged || res.Rounds != baseline.Rounds {
		t.Fatalf("crashed run: converged=%t rounds=%d, baseline rounds=%d", res.Converged, res.Rounds, baseline.Rounds)
	}
	for i := range baseline.X {
		if res.X[i] != baseline.X[i] {
			t.Errorf("x[%d] = %v, baseline %v (trajectory not bit-identical)", i, res.X[i], baseline.X[i])
		}
	}
}

func TestCrashResumeRestoresEarlyReports(t *testing.T) {
	m := ringModel(t)
	baseline, err := runChurn(churnConfig(t, m))
	if err != nil {
		t.Fatal(err)
	}

	cfg := churnConfig(t, m)
	// Bounds the wait of a resume that lost its early reports, so the
	// failure surfaces as a quorum desync rather than a long stall.
	cfg.Agent.RoundTimeout = 2 * time.Second
	cfg.Faults = &transport.FaultConfig{Rules: []transport.FaultRule{
		{
			Kind: transport.FaultDelay, Direction: transport.DirSend,
			Nodes: []int{3}, Peers: []int{2}, FromRound: 4, ToRound: 4,
			Delay: 50 * time.Millisecond,
		},
		{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{2}, FromRound: 5, ToRound: 5,
		},
	}}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d failed: %v", i, e)
		}
	}
	if !res.Converged || res.Rounds != baseline.Rounds {
		t.Fatalf("crashed run: converged=%t rounds=%d, baseline rounds=%d", res.Converged, res.Rounds, baseline.Rounds)
	}
	for i := range baseline.X {
		if res.X[i] != baseline.X[i] {
			t.Errorf("x[%d] = %v, baseline %v (trajectory not bit-identical)", i, res.X[i], baseline.X[i])
		}
	}
	var round5 []Checkpoint
	for _, ck := range res.Stores[2].History() {
		if ck.Round == 5 {
			round5 = append(round5, ck)
		}
	}
	if len(round5) != 2 {
		t.Fatalf("node 2 checkpointed round 5 %d times, want 2 (pre-crash + resume)", len(round5))
	}
	if len(round5[0].Early) == 0 {
		t.Fatal("node 2 read no round-5 report ahead of its crash; the delay did not set up the race")
	}
	if !reflect.DeepEqual(round5[1].Early, round5[0].Early) {
		t.Errorf("resumed round-5 checkpoint early reports = %+v, want the restored %+v", round5[1].Early, round5[0].Early)
	}
	assertSumInvariant(t, res.Stores)
}

// TestCrashDepartRedistributes kills node 3 for good: the supervisor's
// budget forbids restart, the survivors declare it departed after two
// missed quorum rounds, absorb its fraction feasibility-preservingly, and
// converge to the KKT optimum of the reduced system.
func TestCrashDepartRedistributes(t *testing.T) {
	m := ringModel(t)
	cfg := churnConfig(t, m)
	obs := &agent.CounterObserver{}
	cfg.Agent.Observer = obs
	cfg.Agent.RoundTimeout = 200 * time.Millisecond
	cfg.Supervisor.MaxRestarts = -1 // a permanently dead process
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{3}, FromRound: 4,
		}},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Errs[3], ErrRestartBudget) || !errors.Is(res.Errs[3], transport.ErrCrashed) {
		t.Errorf("node 3 error = %v, want ErrRestartBudget wrapping ErrCrashed", res.Errs[3])
	}
	if len(res.Survivors) != 3 {
		t.Fatalf("survivors = %v, want [0 1 2]", res.Survivors)
	}
	if res.Alive[3] {
		t.Error("node 3 still marked alive on the survivors")
	}
	if !res.Converged {
		t.Fatal("survivors did not converge on the reduced support")
	}
	assertNearOptimum(t, m, res.X, res.Alive)
	assertSumInvariant(t, res.Stores)
	c := obs.Counters()
	if got := c.RecoveryByKind["depart"]; got != 3 {
		t.Errorf("depart events = %d, want 3 (one per survivor)", got)
	}
	if c.RecoveryByKind["quorum"] == 0 {
		t.Error("no quorum-round events observed")
	}
}

// TestPartitionDepart partitions node 1 away mid-run: it fails with the
// typed round-timeout error (its quorum can never be met), while the
// survivors quorum through, depart it, and converge on the reduced
// support.
func TestPartitionDepart(t *testing.T) {
	m := ringModel(t)
	cfg := churnConfig(t, m)
	cfg.Agent.RoundTimeout = 200 * time.Millisecond
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultPartition, Direction: transport.DirBoth,
			Nodes: []int{1}, FromRound: 6,
		}},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Errs[1], agent.ErrRoundTimeout) {
		t.Errorf("partitioned node error = %v, want ErrRoundTimeout", res.Errs[1])
	}
	if len(res.Survivors) != 3 || res.Alive[1] {
		t.Fatalf("survivors = %v, alive[1] = %t", res.Survivors, res.Alive[1])
	}
	if !res.Converged {
		t.Fatal("survivors did not converge")
	}
	assertNearOptimum(t, m, res.X, res.Alive)
	assertSumInvariant(t, res.Stores)
}

// TestDepartRejoin closes the loop: after a crash-departure epoch the
// dead node rejoins epoch 2 with a zero fragment and climbs back to the
// full-support optimum via the active-set mechanics.
func TestDepartRejoin(t *testing.T) {
	m := ringModel(t)
	cfg := churnConfig(t, m)
	cfg.Agent.RoundTimeout = 200 * time.Millisecond
	cfg.Supervisor.MaxRestarts = -1
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{3}, FromRound: 4,
		}},
	}
	epoch1, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !epoch1.Converged || epoch1.Alive[3] {
		t.Fatalf("epoch 1: converged=%t alive[3]=%t", epoch1.Converged, epoch1.Alive[3])
	}

	init2, alive2, err := RejoinInit(epoch1.X, epoch1.Alive, 3)
	if err != nil {
		t.Fatal(err)
	}
	if init2[3] != 0 || !alive2[3] {
		t.Fatalf("RejoinInit: x[3]=%v alive[3]=%t", init2[3], alive2[3])
	}
	obs := &agent.CounterObserver{}
	cfg2 := churnConfig(t, m)
	cfg2.Init = init2
	cfg2.InitAlive = alive2
	cfg2.Agent.Observer = obs
	epoch2, err := runChurn(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range epoch2.Errs {
		if e != nil {
			t.Fatalf("epoch 2 node %d: %v", i, e)
		}
	}
	if !epoch2.Converged {
		t.Fatal("epoch 2 did not converge")
	}
	if epoch2.X[3] <= 0 {
		t.Errorf("rejoiner never climbed back in: x[3] = %v", epoch2.X[3])
	}
	assertNearOptimum(t, m, epoch2.X, epoch2.Alive)
	assertSumInvariant(t, epoch2.Stores)
	if got := obs.Counters().RecoveryByKind["rejoin"]; got != 1 {
		t.Errorf("rejoin events = %d, want 1", got)
	}
}

// TestDoubleCrashResume kills two different nodes in different rounds;
// both are supervised back and the run still lands on the uninterrupted
// trajectory bit for bit.
func TestDoubleCrashResume(t *testing.T) {
	m := ringModel(t)
	baseline, err := runChurn(churnConfig(t, m))
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnConfig(t, m)
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{
			{Kind: transport.FaultCrash, Direction: transport.DirSend, Nodes: []int{1}, FromRound: 4, ToRound: 4},
			{Kind: transport.FaultCrash, Direction: transport.DirSend, Nodes: []int{2}, FromRound: 7, ToRound: 7},
		},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d failed: %v", i, e)
		}
	}
	if res.Restarts[1] != 1 || res.Restarts[2] != 1 {
		t.Errorf("restarts = %d/%d, want 1/1", res.Restarts[1], res.Restarts[2])
	}
	if res.Faults.Crashes != 2 {
		t.Errorf("injected crashes = %d, want 2", res.Faults.Crashes)
	}
	if !res.Converged || res.Rounds != baseline.Rounds {
		t.Fatalf("converged=%t rounds=%d, baseline %d", res.Converged, res.Rounds, baseline.Rounds)
	}
	for i := range baseline.X {
		if res.X[i] != baseline.X[i] {
			t.Errorf("x[%d] = %v, baseline %v", i, res.X[i], baseline.X[i])
		}
	}
	assertSumInvariant(t, res.Stores)
}

// TestRejoinInitValidation covers the rejoin construction's error paths.
func TestRejoinInitValidation(t *testing.T) {
	x := []float64{0.5, 0.5, 0, 0}
	alive := []bool{true, true, true, false}
	if _, _, err := RejoinInit(x, alive[:3], 3); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := RejoinInit(x, alive, 4); err == nil {
		t.Error("out-of-range rejoiner accepted")
	}
	if _, _, err := RejoinInit(x, alive, 0); err == nil {
		t.Error("live rejoiner accepted")
	}
	if _, _, err := RejoinInit([]float64{0.2, 0.2, 0, 0}, alive, 3); err == nil {
		t.Error("infeasible survivor mass accepted")
	}
	x2, alive2, err := RejoinInit(x, alive, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, xi := range x2 {
		sum += xi
	}
	if sum != 1 || x2[3] != 0 || !alive2[3] {
		t.Errorf("RejoinInit = %v (Σ=%v), alive=%v", x2, sum, alive2)
	}
	// The inputs are not aliased by the outputs.
	x2[0] = 99
	if x[0] == 99 {
		t.Error("RejoinInit aliases its input slice")
	}
}
