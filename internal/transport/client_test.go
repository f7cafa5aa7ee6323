package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// testReplyID reads the test protocol: the payload is the 8-byte
// big-endian correlation ID.
func testReplyID(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload), true
}

func testPayload(id uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, id)
	return b
}

// startEcho runs an echo server on the endpoint until the context is
// cancelled or the endpoint closes.
func startEcho(t *testing.T, ep Endpoint) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			msg, err := ep.Recv(ctx)
			if err != nil {
				return
			}
			if err := ep.Send(ctx, msg.From, msg.Payload); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// newClientCluster wires a memory network with echo servers on nodes
// 0..n-2 and a client on node n-1. mutate lets tests wrap the client's
// endpoint (e.g. in a FaultEndpoint) before the client takes it over.
func newClientCluster(t *testing.T, n int, cfg ClientConfig, wrap func(Endpoint) Endpoint) *Client {
	t.Helper()
	net, err := NewMemoryNetwork(n)
	if err != nil {
		t.Fatalf("memory network: %v", err)
	}
	t.Cleanup(func() { _ = net.Close() })
	for i := 0; i < n-1; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		startEcho(t, ep)
	}
	ep, err := net.Endpoint(n - 1)
	if err != nil {
		t.Fatalf("client endpoint: %v", err)
	}
	if wrap != nil {
		ep = wrap(ep)
	}
	cfg.Endpoint = ep
	cfg.ReplyID = testReplyID
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientDoEcho(t *testing.T) {
	c := newClientCluster(t, 3, ClientConfig{RequestTimeout: time.Second}, nil)
	reply, err := c.Do(context.Background(), 0, 7, testPayload(7))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if id, ok := testReplyID(reply); !ok || id != 7 {
		t.Fatalf("reply id = %d, %v", id, ok)
	}
	if c.Down(0) {
		t.Fatal("node 0 marked down after a success")
	}
}

// flakyEndpoint fails the first `failures` sends, then passes through.
type flakyEndpoint struct {
	Endpoint
	mu       sync.Mutex
	failures int
}

func (f *flakyEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("flaky: injected send failure")
	}
	return f.Endpoint.Send(ctx, to, payload)
}

func TestClientRetriesUntilSuccess(t *testing.T) {
	c := newClientCluster(t, 2, ClientConfig{
		RequestTimeout: time.Second,
		Retries:        3,
	}, func(ep Endpoint) Endpoint {
		return &flakyEndpoint{Endpoint: ep, failures: 2}
	})
	reply, err := c.Do(context.Background(), 0, 1, testPayload(1))
	if err != nil {
		t.Fatalf("Do after transient failures: %v", err)
	}
	if id, _ := testReplyID(reply); id != 1 {
		t.Fatalf("reply id = %d, want 1", id)
	}
	if got := c.m.retries.Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
	if c.Down(0) {
		t.Fatal("node 0 down despite eventual success")
	}
}

func TestClientDropMarksNodeDown(t *testing.T) {
	// Every send to node 0 is dropped; node 1 stays reachable. The
	// consecutive-failure detector must mark exactly node 0 down.
	cfg := FaultConfig{Seed: 1, Rules: []FaultRule{
		{Kind: FaultDrop, Direction: DirSend, Peers: []int{0}, Probability: 1},
	}}
	c := newClientCluster(t, 3, ClientConfig{
		RequestTimeout: 50 * time.Millisecond,
		Retries:        1,
		DownAfter:      2,
	}, func(ep Endpoint) Endpoint {
		fep, err := NewFaultEndpoint(ep, cfg)
		if err != nil {
			t.Fatalf("fault endpoint: %v", err)
		}
		return fep
	})
	// The detector counts consecutive failed operations (a fully
	// retried-out Do is one failure), so DownAfter=2 needs two.
	for id := uint64(1); id <= 2; id++ {
		if _, err := c.Do(context.Background(), 0, id, testPayload(id)); err == nil {
			t.Fatal("Do to a fully dropped node succeeded")
		}
	}
	if !c.Down(0) {
		t.Fatal("node 0 not marked down after consecutive failed requests")
	}
	if _, err := c.Do(context.Background(), 1, 3, testPayload(3)); err != nil {
		t.Fatalf("Do to healthy node: %v", err)
	}
	alive := c.AliveView(2)
	if alive[0] || !alive[1] {
		t.Fatalf("alive view = %v, want [false true]", alive)
	}
	if got := c.m.nodeDown.Value(); got != 1 {
		t.Fatalf("node_down counter = %d, want 1", got)
	}
}

func TestClientPartitionHitsDeadline(t *testing.T) {
	// A partition swallows traffic silently: the send succeeds but no
	// reply ever arrives, so the attempt must miss its deadline.
	cfg := FaultConfig{Seed: 1, Rules: []FaultRule{
		{Kind: FaultPartition, Direction: DirSend, Peers: []int{0}, Probability: 1},
	}}
	c := newClientCluster(t, 2, ClientConfig{
		RequestTimeout: 20 * time.Millisecond,
	}, func(ep Endpoint) Endpoint {
		fep, err := NewFaultEndpoint(ep, cfg)
		if err != nil {
			t.Fatalf("fault endpoint: %v", err)
		}
		return fep
	})
	_, err := c.Do(context.Background(), 0, 1, testPayload(1))
	if !errors.Is(err, ErrNoReply) {
		t.Fatalf("Do across partition: %v, want ErrNoReply", err)
	}
	if got := c.m.deadlines.Value(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
}

func TestClientHedgeWinsOverDelayedPrimary(t *testing.T) {
	// Node 0 answers 200ms late; node 1 answers promptly. With a 5ms
	// hedge delay the fallback must win the race.
	cfg := FaultConfig{Seed: 1, Rules: []FaultRule{
		{Kind: FaultDelay, Direction: DirSend, Peers: []int{0}, Probability: 1, Delay: 200 * time.Millisecond},
	}}
	c := newClientCluster(t, 3, ClientConfig{
		RequestTimeout: 2 * time.Second,
		HedgeDelay:     5 * time.Millisecond,
	}, func(ep Endpoint) Endpoint {
		fep, err := NewFaultEndpoint(ep, cfg)
		if err != nil {
			t.Fatalf("fault endpoint: %v", err)
		}
		return fep
	})
	reply, node, err := c.DoHedged(context.Background(), 0, 1, 1, testPayload(1), 2, testPayload(2))
	if err != nil {
		t.Fatalf("DoHedged: %v", err)
	}
	if node != 1 {
		t.Fatalf("winning node = %d, want the hedge (1)", node)
	}
	if id, _ := testReplyID(reply); id != 2 {
		t.Fatalf("winning reply id = %d, want the hedge's (2)", id)
	}
	if got := c.m.hedges.Value(); got != 1 {
		t.Fatalf("hedges counter = %d, want 1", got)
	}
	if got := c.m.hedgeWins.Value(); got != 1 {
		t.Fatalf("hedge wins counter = %d, want 1", got)
	}
}

func TestClientHedgeDisabledFallsBackToDo(t *testing.T) {
	c := newClientCluster(t, 2, ClientConfig{RequestTimeout: time.Second}, nil)
	reply, node, err := c.DoHedged(context.Background(), 0, 0, 1, testPayload(1), 2, testPayload(2))
	if err != nil {
		t.Fatalf("DoHedged without hedging: %v", err)
	}
	if node != 0 {
		t.Fatalf("node = %d, want 0", node)
	}
	if id, _ := testReplyID(reply); id != 1 {
		t.Fatalf("reply id = %d, want 1", id)
	}
	if got := c.m.hedges.Value(); got != 0 {
		t.Fatalf("hedges counter = %d, want 0", got)
	}
}

func TestClientBackpressure(t *testing.T) {
	// A partitioned server never replies, so every admitted request keeps
	// its in-flight slot until its deadline; once all maxInFlight slots
	// are held, one more request must shed as ErrOverloaded.
	cfg := FaultConfig{Seed: 1, Rules: []FaultRule{
		{Kind: FaultPartition, Direction: DirSend, Peers: []int{0}, Probability: 1},
	}}
	c := newClientCluster(t, 2, ClientConfig{
		RequestTimeout: 2 * time.Second,
	}, func(ep Endpoint) Endpoint {
		fep, err := NewFaultEndpoint(ep, cfg)
		if err != nil {
			t.Fatalf("fault endpoint: %v", err)
		}
		return fep
	})
	done := make(chan error, maxInFlight)
	for id := uint64(1); id <= maxInFlight; id++ {
		go func() {
			_, err := c.Do(context.Background(), 0, id, testPayload(id))
			done <- err
		}()
	}
	// Wait for the saturating requests to take every slot.
	for deadline := time.Now().Add(time.Second); len(c.sem) < maxInFlight; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slots taken after 1s", len(c.sem), maxInFlight)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, 0, maxInFlight+1, testPayload(maxInFlight+1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Do past %d in flight = %v, want ErrOverloaded", maxInFlight, err)
	}
	if got := c.m.overloads.Value(); got != 1 {
		t.Fatalf("overloads counter = %d, want 1", got)
	}
	for i := 0; i < maxInFlight; i++ {
		if err := <-done; !errors.Is(err, ErrNoReply) {
			t.Fatalf("saturating Do = %v, want ErrNoReply", err)
		}
	}
}

func TestClientProbeFeedsDetector(t *testing.T) {
	cfg := FaultConfig{Seed: 1, Rules: []FaultRule{
		{Kind: FaultDrop, Direction: DirSend, Peers: []int{0}, Probability: 1},
	}}
	c := newClientCluster(t, 3, ClientConfig{
		RequestTimeout: 20 * time.Millisecond,
		DownAfter:      2,
	}, func(ep Endpoint) Endpoint {
		fep, err := NewFaultEndpoint(ep, cfg)
		if err != nil {
			t.Fatalf("fault endpoint: %v", err)
		}
		return fep
	})
	for i := 0; i < 2; i++ {
		if _, err := c.Probe(context.Background(), 0, uint64(10+i), testPayload(uint64(10+i))); err == nil {
			t.Fatal("probe to dropped node succeeded")
		}
	}
	if !c.Down(0) {
		t.Fatal("node 0 not down after failed probes")
	}
	// A successful probe brings it back.
	c.SetDown(0, false)
	if c.Down(0) {
		t.Fatal("SetDown(false) did not clear the down mark")
	}
}

func TestRoute(t *testing.T) {
	alive := []bool{true, true, true}
	// CDF over [0.2, 0.3, 0.5]: u=0.10 -> 0, u=0.25 -> 1, u=0.9 -> 2.
	x := []float64{0.2, 0.3, 0.5}
	for _, tc := range []struct {
		u    float64
		want int
	}{{0.10, 0}, {0.25, 1}, {0.90, 2}} {
		got, err := Route(x, alive, -1, tc.u)
		if err != nil {
			t.Fatalf("Route(u=%v): %v", tc.u, err)
		}
		if got != tc.want {
			t.Fatalf("Route(u=%v) = %d, want %d", tc.u, got, tc.want)
		}
	}

	// Dead nodes are excluded and survivors renormalized: with node 2
	// dead, weights become [0.4, 0.6].
	got, err := Route(x, []bool{true, true, false}, -1, 0.5)
	if err != nil {
		t.Fatalf("Route with dead node: %v", err)
	}
	if got != 1 {
		t.Fatalf("Route with dead node = %d, want 1", got)
	}

	// avoid excludes the primary even when alive.
	got, err = Route(x, alive, 2, 0.99)
	if err != nil {
		t.Fatalf("Route with avoid: %v", err)
	}
	if got == 2 {
		t.Fatal("Route returned the avoided node")
	}

	// All candidates dead: ErrNoCandidates.
	if _, err := Route(x, []bool{false, false, false}, -1, 0.5); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("Route with all dead = %v, want ErrNoCandidates", err)
	}

	// Zero weight on every survivor: uniform fallback over the alive set.
	got, err = Route([]float64{0, 0, 1}, []bool{true, true, false}, -1, 0.6)
	if err != nil {
		t.Fatalf("Route with zero survivor weights: %v", err)
	}
	if got != 1 {
		t.Fatalf("uniform fallback = %d, want 1", got)
	}
}
