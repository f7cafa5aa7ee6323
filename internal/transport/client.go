package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/metrics"
)

// Client errors. ErrOverloaded is backpressure: the bounded in-flight
// window is full and no slot freed before the context expired — the
// caller sheds load instead of growing an unbounded queue. ErrNoReply is
// a per-attempt deadline miss (the peer may be dead, partitioned, or just
// slow). ErrNoCandidates means routing found no alive node to serve from.
var (
	ErrOverloaded   = errors.New("transport: client overloaded")
	ErrNoReply      = errors.New("transport: no reply before deadline")
	ErrNoCandidates = errors.New("transport: no alive candidate nodes")
)

const (
	// backoffBase and backoffCap bound the retry backoff: the first
	// retry waits up to backoffBase, each later one twice as long, up to
	// backoffCap.
	backoffBase = time.Millisecond
	backoffCap  = 50 * time.Millisecond
	// maxInFlight bounds concurrently admitted requests (backpressure).
	maxInFlight = 256
)

// ClientConfig configures a hardened request/reply client over an
// Endpoint. The client never parses payloads: ReplyID is the injected
// protocol hook (cf. FaultConfig.RoundOf) that extracts the correlation
// ID from reply payloads, keeping this package protocol-agnostic.
type ClientConfig struct {
	// Endpoint carries the traffic. The client owns its Recv side: no
	// other reader may consume from it once the client starts.
	Endpoint Endpoint
	// ReplyID extracts the correlation ID from a reply payload; payloads
	// it reports false for are discarded (and counted).
	ReplyID func(payload []byte) (uint64, bool)
	// RequestTimeout bounds each attempt (send + wait for reply).
	// Default 2s.
	RequestTimeout time.Duration
	// Retries is the number of extra attempts after the first failure.
	// Default 0 (single attempt); Do retries with seeded-jitter capped
	// exponential backoff between attempts (1 ms, doubling to a 50 ms
	// cap).
	Retries int
	// Seed feeds the backoff jitter; same seed, same jitter sequence.
	Seed int64
	// HedgeDelay, when positive, arms DoHedged: if the primary has not
	// replied after this delay, a second request is sent to the fallback
	// node and the first reply wins. Derive it from a measured p99 so
	// hedges only fire on tail-latency requests. Zero disables hedging.
	HedgeDelay time.Duration
	// DownAfter is the failure-detector threshold: this many consecutive
	// failed attempts (requests or probes) marks a node down; any
	// success marks it up again. Default 3.
	DownAfter int
	// Registry, when non-nil, receives the fap_client_* metric families.
	Registry *metrics.Registry
}

// clientMetrics holds the fap_client_* instruments. A nil registry wires
// every instrument to a private registry so call sites stay unconditional.
type clientMetrics struct {
	requestsOK     *metrics.Counter
	requestsFailed *metrics.Counter
	retries        *metrics.Counter
	hedges         *metrics.Counter
	hedgeWins      *metrics.Counter
	deadlines      *metrics.Counter
	overloads      *metrics.Counter
	nodeDown       *metrics.Counter
	nodeUp         *metrics.Counter
	unmatched      *metrics.Counter
	inflight       *metrics.Gauge
}

func newClientMetrics(reg *metrics.Registry) *clientMetrics {
	if reg == nil {
		reg = metrics.New()
	}
	return &clientMetrics{
		requestsOK:     reg.Counter("fap_client_requests_total", "client requests by outcome", metrics.L("outcome", "ok")),
		requestsFailed: reg.Counter("fap_client_requests_total", "client requests by outcome", metrics.L("outcome", "error")),
		retries:        reg.Counter("fap_client_retries_total", "retry attempts after a failed attempt"),
		hedges:         reg.Counter("fap_client_hedges_total", "hedged second requests fired"),
		hedgeWins:      reg.Counter("fap_client_hedge_wins_total", "hedged requests won by the hedge arm"),
		deadlines:      reg.Counter("fap_client_deadline_misses_total", "attempts that hit the per-request deadline"),
		overloads:      reg.Counter("fap_client_admission_rejects_total", "requests shed by bounded in-flight admission"),
		nodeDown:       reg.Counter("fap_client_node_down_total", "failure-detector down transitions"),
		nodeUp:         reg.Counter("fap_client_node_up_total", "failure-detector up transitions"),
		unmatched:      reg.Counter("fap_client_unmatched_replies_total", "reply payloads with no pending request"),
		inflight:       reg.Gauge("fap_client_inflight", "currently admitted requests"),
	}
}

// Client is the hardened request/reply path over an Endpoint: per-request
// deadlines, seeded-jitter capped retry backoff, optional hedged second
// requests, bounded in-flight admission, and a consecutive-failure
// detector whose alive view feeds Route's degraded-mode fallback. A
// single background goroutine owns Endpoint.Recv and dispatches replies
// to waiters by correlation ID.
type Client struct {
	cfg    ClientConfig
	m      *clientMetrics
	sem    chan struct{}
	closed chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	rng     *rand.Rand
	pending map[uint64]chan []byte
	misses  map[int]int
	down    map[int]bool
	shut    bool
}

// NewClient validates the config and starts the reply-dispatch loop.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("transport: client needs an endpoint")
	}
	if cfg.ReplyID == nil {
		return nil, fmt.Errorf("transport: client needs a ReplyID hook")
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("transport: negative retries %d", cfg.Retries)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	c := &Client{
		cfg:     cfg,
		m:       newClientMetrics(cfg.Registry),
		sem:     make(chan struct{}, maxInFlight),
		closed:  make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[uint64]chan []byte),
		misses:  make(map[int]int),
		down:    make(map[int]bool),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go c.recvLoop(ctx)
	return c, nil
}

// Close stops the dispatch loop and fails all pending waiters. The
// underlying endpoint is NOT closed — the caller owns it.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.shut {
		c.mu.Unlock()
		return nil
	}
	c.shut = true
	c.mu.Unlock()
	close(c.closed)
	c.cancel()
	c.wg.Wait()
	return nil
}

// recvLoop dispatches reply payloads to their waiting request by
// correlation ID. It exits when the endpoint closes or Close cancels the
// context.
func (c *Client) recvLoop(ctx context.Context) {
	defer c.wg.Done()
	for {
		msg, err := c.cfg.Endpoint.Recv(ctx)
		if err != nil {
			return
		}
		id, ok := c.cfg.ReplyID(msg.Payload)
		if !ok {
			c.m.unmatched.Inc()
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !ok {
			c.m.unmatched.Inc()
			continue
		}
		ch <- msg.Payload
	}
}

// admit takes an in-flight slot, blocking until one frees or the context
// expires (backpressure: the caller sheds load as ErrOverloaded instead
// of queueing without bound).
func (c *Client) admit(ctx context.Context) error {
	select {
	case c.sem <- struct{}{}:
		c.m.inflight.Set(float64(len(c.sem)))
		return nil
	default:
	}
	select {
	case c.sem <- struct{}{}:
		c.m.inflight.Set(float64(len(c.sem)))
		return nil
	case <-ctx.Done():
		c.m.overloads.Inc()
		return fmt.Errorf("%w: %d in flight", ErrOverloaded, maxInFlight)
	case <-c.closed:
		return ErrClosed
	}
}

func (c *Client) release() {
	<-c.sem
	c.m.inflight.Set(float64(len(c.sem)))
}

// backoff returns the jittered delay before retry attempt a (1-based):
// doubling from backoffBase, capped at backoffCap, jittered into
// [d/2, d] from the seeded stream — the same shape as the recovery
// supervisor's restart backoff.
func (c *Client) backoff(a int) time.Duration {
	d := backoffBase
	for i := 1; i < a && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	c.mu.Lock()
	jitter := c.rng.Int63n(int64(d/2) + 1)
	c.mu.Unlock()
	return d/2 + time.Duration(jitter)
}

// Do sends payload to node `to` and waits for the reply carrying `id`,
// retrying failed attempts (deadline miss, transport error) up to
// cfg.Retries times with backoff. The caller assigns `id` and must encode
// it inside the payload so the peer can echo it.
func (c *Client) Do(ctx context.Context, to int, id uint64, payload []byte) ([]byte, error) {
	if err := c.admit(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	var lastErr error
	for a := 0; a <= c.cfg.Retries; a++ {
		if a > 0 {
			c.m.retries.Inc()
			if err := sleepCtx(ctx, c.backoff(a)); err != nil {
				break
			}
		}
		reply, err := c.attempt(ctx, to, id, payload)
		if err == nil {
			c.observeOutcome(to, true)
			c.m.requestsOK.Inc()
			return reply, nil
		}
		lastErr = err
		if ctx.Err() != nil || errors.Is(err, ErrClosed) {
			break
		}
	}
	c.observeOutcome(to, false)
	c.m.requestsFailed.Inc()
	return nil, lastErr
}

// SetHedgeDelay retunes the hedge delay at runtime — e.g. re-derived
// each tick from a measured p99 so hedges fire only on tail-latency
// requests. Zero or negative disables hedging.
func (c *Client) SetHedgeDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.HedgeDelay = d
}

func (c *Client) hedgeDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.HedgeDelay
}

// Probe is a single heartbeat attempt: no admission (probes must not be
// starved by request backpressure), no retries, outcome fed straight to
// the failure detector.
func (c *Client) Probe(ctx context.Context, to int, id uint64, payload []byte) ([]byte, error) {
	reply, err := c.attempt(ctx, to, id, payload)
	c.observeOutcome(to, err == nil)
	return reply, err
}

// DoHedged sends the primary request and, if no reply arrives within
// cfg.HedgeDelay, fires the hedge request at the fallback node; the first
// successful reply wins. The two requests need distinct correlation IDs
// (and payloads carrying them) because both may complete. With hedging
// disabled (HedgeDelay == 0) it degrades to Do on the primary. Returns
// the winning reply and the node it came from.
func (c *Client) DoHedged(ctx context.Context, primary, fallback int, id uint64, payload []byte, hedgeID uint64, hedgePayload []byte) ([]byte, int, error) {
	delay := c.hedgeDelay()
	if delay <= 0 || fallback == primary {
		b, err := c.Do(ctx, primary, id, payload)
		return b, primary, err
	}
	if err := c.admit(ctx); err != nil {
		return nil, primary, err
	}
	defer c.release()

	results := make(chan armResult, 2)
	c.wg.Add(1)
	go c.runArm(ctx, primary, id, payload, results)

	hedgeTimer := time.NewTimer(delay)
	defer hedgeTimer.Stop()
	launchHedge := func() {
		c.m.hedges.Inc()
		c.wg.Add(1)
		go c.runArm(ctx, fallback, hedgeID, hedgePayload, results)
	}
	outstanding := 1
	hedged := false
	var firstErr error
	for {
		select {
		case r := <-results:
			if r.err == nil {
				c.m.requestsOK.Inc()
				if r.node == fallback {
					c.m.hedgeWins.Inc()
				}
				return r.payload, r.node, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			outstanding--
			if !hedged {
				// The primary failed before the hedge delay elapsed:
				// fire the hedge immediately as the fallback attempt.
				hedged = true
				hedgeTimer.Stop()
				launchHedge()
				outstanding++
				continue
			}
			if outstanding == 0 {
				c.m.requestsFailed.Inc()
				return nil, r.node, firstErr
			}
		case <-hedgeTimer.C:
			hedged = true
			launchHedge()
			outstanding++
		case <-ctx.Done():
			c.m.requestsFailed.Inc()
			return nil, primary, ctx.Err()
		case <-c.closed:
			return nil, primary, ErrClosed
		}
	}
}

// armResult is one hedge arm's outcome.
type armResult struct {
	payload []byte
	node    int
	err     error
}

// runArm runs one hedge arm; the buffered results channel never blocks,
// so the goroutine exits as soon as its attempt resolves (and attempt
// itself unblocks on ctx cancel or Close).
func (c *Client) runArm(ctx context.Context, to int, id uint64, payload []byte, results chan<- armResult) {
	defer c.wg.Done()
	b, err := c.attempt(ctx, to, id, payload)
	c.observeOutcome(to, err == nil)
	results <- armResult{payload: b, node: to, err: err}
}

// attempt is one send + bounded wait for the correlated reply.
func (c *Client) attempt(ctx context.Context, to int, id uint64, payload []byte) ([]byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.shut {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.pending[id] == ch {
			delete(c.pending, id)
		}
		c.mu.Unlock()
	}()
	if err := c.cfg.Endpoint.Send(ctx, to, payload); err != nil {
		return nil, err
	}
	timer := time.NewTimer(c.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case b := <-ch:
		return b, nil
	case <-timer.C:
		c.m.deadlines.Inc()
		return nil, fmt.Errorf("%w: node %d after %v", ErrNoReply, to, c.cfg.RequestTimeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
}

// observeOutcome feeds the consecutive-failure detector: DownAfter
// straight failures mark a node down, any success marks it up.
func (c *Client) observeOutcome(node int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.misses[node] = 0
		if c.down[node] {
			delete(c.down, node)
			c.m.nodeUp.Inc()
		}
		return
	}
	c.misses[node]++
	if !c.down[node] && c.misses[node] >= c.cfg.DownAfter {
		c.down[node] = true
		c.m.nodeDown.Inc()
	}
}

// Down reports the failure detector's verdict for a node.
func (c *Client) Down(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[node]
}

// AliveView snapshots the detector's alive set over the endpoint's peers
// plus the local node, as a dense []bool indexed by node ID. Callers
// snapshot once per tick and route against the copy, so routing decisions
// stay deterministic within a tick even as the detector updates.
func (c *Client) AliveView(n int) []bool {
	alive := make([]bool, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range alive {
		alive[i] = !c.down[i]
	}
	return alive
}

// SetDown overrides the detector for one node (e.g. a controller that
// learned of a crash out of band).
func (c *Client) SetDown(node int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if down {
		if !c.down[node] {
			c.down[node] = true
			c.m.nodeDown.Inc()
		}
		if c.misses[node] < c.cfg.DownAfter {
			c.misses[node] = c.cfg.DownAfter
		}
		return
	}
	if c.down[node] {
		delete(c.down, node)
		c.misses[node] = 0
		c.m.nodeUp.Inc()
	}
}

// Route picks a serving node from plan weights by an inverse-CDF draw
// u ∈ [0, 1): dead candidates (alive[i] == false) and the avoid node
// (pass -1 for none) are zeroed and the survivors renormalized via
// core.Renormalize — degraded mode serves from surviving replicas
// instead of erroring. When every surviving weight is zero (the plan put
// all mass on dead nodes) the draw falls back to uniform over the alive
// set. Pure function: deterministic for a given (weights, alive, u).
func Route(weights []float64, alive []bool, avoid int, u float64) (int, error) {
	if len(weights) != len(alive) {
		return 0, fmt.Errorf("transport: route dimensions differ: %d weights, %d alive", len(weights), len(alive))
	}
	w := make([]float64, len(weights))
	var group []int
	for i := range weights {
		if !alive[i] || i == avoid {
			continue
		}
		if weights[i] > 0 {
			w[i] = weights[i]
			group = append(group, i)
		}
	}
	if len(group) == 0 {
		// Uniform over alive survivors.
		for i := range alive {
			if alive[i] && i != avoid {
				w[i] = 1
				group = append(group, i)
			}
		}
	}
	if len(group) == 0 {
		return 0, ErrNoCandidates
	}
	if err := core.Renormalize(w, group); err != nil {
		return 0, fmt.Errorf("transport: route renormalize: %w", err)
	}
	sort.Ints(group)
	acc := 0.0
	for _, gi := range group {
		acc += w[gi]
		if u < acc {
			return gi, nil
		}
	}
	return group[len(group)-1], nil
}
