package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultDrop discards a message and reports ErrDropped to the sender
	// (a detectable loss, like a failed write — the retry path sees it).
	FaultDrop FaultKind = iota
	// FaultDelay holds a message for the rule's Delay before passing it
	// on.
	FaultDelay
	// FaultDuplicate delivers a message once plus Copies extra times
	// (default one extra).
	FaultDuplicate
	// FaultReorder holds a received message briefly and delivers its
	// successor first, swapping adjacent arrivals. Receive direction
	// only: an agent's sends are sequential, so delaying one send cannot
	// invert their order.
	FaultReorder
	// FaultPartition silently swallows traffic — the sender observes
	// success (as with a black-holed TCP write buffered by the kernel)
	// and the receiver sees nothing, so only a round timeout reveals it.
	FaultPartition
	// FaultCrash kills the endpoint: the first matching Send or Recv
	// trips the crash, and every operation from that point on fails with
	// ErrCrashed until Revive is called — the supervisor's model of a
	// process dying mid-round. Messages already queued by the wrapped
	// endpoint survive the crash (peers' sends were accepted by the
	// network layer), so a revived endpoint resumes reading where the
	// dead process would have, exactly like a restart reading a durable
	// transport buffer. Each crash rule fires at most once per endpoint —
	// a process dies once, and after Revive the endpoint models a fresh
	// process the spent rule no longer applies to; install several rules
	// to kill a node repeatedly. Nodes and FromRound/ToRound make the
	// kill per-node, per-round triggerable.
	FaultCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultPartition:
		return "partition"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultDirection selects which side of the endpoint a rule intercepts.
type FaultDirection int

const (
	// DirSend applies the rule to outgoing messages.
	DirSend FaultDirection = 1 << iota
	// DirRecv applies the rule to incoming messages.
	DirRecv
	// DirBoth applies the rule in both directions.
	DirBoth = DirSend | DirRecv
)

// FaultRule describes one injected fault. Selector fields narrow where it
// bites: Nodes restricts the endpoints it is installed on (nil = every
// node), Peers restricts the remote side of the message (nil = every
// peer; for sends the destination, for receives the origin), and
// FromRound/ToRound bound the protocol rounds it covers (both zero =
// every round; ToRound zero alone = open-ended). Round scoping needs
// FaultConfig.RoundOf. Probability zero means the rule always fires;
// otherwise it fires with that probability from the endpoint's seeded
// stream, so a given (seed, rule set) replays identically.
type FaultRule struct {
	Kind        FaultKind
	Direction   FaultDirection // zero value means DirBoth
	Nodes       []int
	Peers       []int
	Probability float64
	Delay       time.Duration // FaultDelay: added latency; FaultReorder: hold window (default 2ms)
	Copies      int           // FaultDuplicate: extra deliveries (default 1)
	FromRound   int
	ToRound     int
}

// direction resolves the zero value to DirBoth.
func (r FaultRule) direction() FaultDirection {
	if r.Direction == 0 {
		return DirBoth
	}
	return r.Direction
}

// FaultConfig configures a FaultEndpoint.
type FaultConfig struct {
	// Seed makes every probabilistic decision reproducible. Each wrapped
	// endpoint derives its own stream from Seed and its node id.
	Seed int64
	// Rules are evaluated in order; the first rule that matches a
	// message and passes its probability draw is applied and the rest
	// are skipped.
	Rules []FaultRule
	// RoundOf extracts the protocol round from a payload so rules can be
	// scoped to round windows without this package importing the
	// protocol; protocol.RoundOf is the canonical implementation.
	// Messages whose round cannot be determined only match rules with no
	// round window.
	RoundOf func(payload []byte) (int, bool)
}

// Validate reports configuration errors eagerly, before a malformed rule
// silently never fires inside a chaos run.
func (c FaultConfig) Validate() error {
	for i, r := range c.Rules {
		switch r.Kind {
		case FaultDrop, FaultDelay, FaultDuplicate, FaultReorder, FaultPartition, FaultCrash:
		default:
			return fmt.Errorf("transport: fault rule %d: unknown kind %d", i, int(r.Kind))
		}
		if r.direction()&DirBoth == 0 {
			return fmt.Errorf("transport: fault rule %d: invalid direction %d", i, int(r.Direction))
		}
		if r.Kind == FaultReorder && r.Direction == DirSend {
			return fmt.Errorf("transport: fault rule %d: reorder applies to the receive direction only", i)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("transport: fault rule %d: probability %g outside [0,1]", i, r.Probability)
		}
		if r.Delay < 0 {
			return fmt.Errorf("transport: fault rule %d: negative delay %v", i, r.Delay)
		}
		if r.Copies < 0 {
			return fmt.Errorf("transport: fault rule %d: negative copies %d", i, r.Copies)
		}
		if r.FromRound < 0 || r.ToRound < 0 {
			return fmt.Errorf("transport: fault rule %d: negative round bound", i)
		}
		if r.ToRound != 0 && r.ToRound < r.FromRound {
			return fmt.Errorf("transport: fault rule %d: round window [%d,%d] is empty", i, r.FromRound, r.ToRound)
		}
		if (r.FromRound != 0 || r.ToRound != 0) && c.RoundOf == nil {
			return fmt.Errorf("transport: fault rule %d: round window requires FaultConfig.RoundOf", i)
		}
	}
	return nil
}

// FaultStats is a snapshot of the faults a FaultEndpoint injected.
type FaultStats struct {
	SendDropped     int64 // sends failed with ErrDropped
	SendDelayed     int64
	SendDuplicated  int64 // extra copies emitted
	SendPartitioned int64 // sends silently swallowed
	RecvDropped     int64 // receives silently discarded
	RecvDelayed     int64
	RecvDuplicated  int64 // extra copies delivered
	RecvReordered   int64 // adjacent pairs swapped
	RecvPartitioned int64 // receives swallowed by a partition rule
	Crashes         int64 // crash transitions tripped by a FaultCrash rule
	CrashRefused    int64 // Send/Recv calls refused while crashed
}

// Total sums every injected fault.
func (s FaultStats) Total() int64 {
	return s.SendDropped + s.SendDelayed + s.SendDuplicated + s.SendPartitioned +
		s.RecvDropped + s.RecvDelayed + s.RecvDuplicated + s.RecvReordered + s.RecvPartitioned +
		s.Crashes + s.CrashRefused
}

// Add accumulates another snapshot (aggregating a cluster's endpoints).
func (s *FaultStats) Add(o FaultStats) {
	s.SendDropped += o.SendDropped
	s.SendDelayed += o.SendDelayed
	s.SendDuplicated += o.SendDuplicated
	s.SendPartitioned += o.SendPartitioned
	s.RecvDropped += o.RecvDropped
	s.RecvDelayed += o.RecvDelayed
	s.RecvDuplicated += o.RecvDuplicated
	s.RecvReordered += o.RecvReordered
	s.RecvPartitioned += o.RecvPartitioned
	s.Crashes += o.Crashes
	s.CrashRefused += o.CrashRefused
}

// FaultEndpoint composes over any Endpoint and injects the configured
// faults deterministically. It is safe for the same concurrent use as
// the wrapped endpoint.
type FaultEndpoint struct {
	inner Endpoint
	cfg   FaultConfig

	rngMu sync.Mutex
	rng   *rand.Rand

	statsMu sync.Mutex
	stats   FaultStats

	// recvMu guards the reorder hold slot and the ready queue (released
	// held messages and duplicate copies awaiting delivery).
	recvMu       sync.Mutex
	held         *Message
	heldDeadline time.Time
	ready        []Message

	// crashMu guards the injected-crash flag and the per-rule
	// spent markers (a crash rule fires at most once).
	crashMu sync.Mutex
	crashed bool
	spent   []bool
}

var _ Endpoint = (*FaultEndpoint)(nil)

// NewFaultEndpoint wraps inner with the configured fault rules. The
// wrapped endpoint keeps sole ownership of the connection: callers must
// stop using inner directly.
func NewFaultEndpoint(inner Endpoint, cfg FaultConfig) (*FaultEndpoint, error) {
	if inner == nil {
		return nil, errors.New("transport: nil inner endpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Derive a per-node stream so a cluster sharing one FaultConfig does
	// not hand every node identical draws.
	seed := cfg.Seed*2654435761 + int64(inner.ID()) + 1
	return &FaultEndpoint{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		spent: make([]bool, len(cfg.Rules)),
	}, nil
}

// ID implements Endpoint.
func (e *FaultEndpoint) ID() int { return e.inner.ID() }

// Peers implements Endpoint.
func (e *FaultEndpoint) Peers() int { return e.inner.Peers() }

// Close implements Endpoint.
func (e *FaultEndpoint) Close() error { return e.inner.Close() }

// Stats returns a snapshot of the injected-fault counters.
func (e *FaultEndpoint) Stats() FaultStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// Crashed reports whether an injected crash has killed the endpoint.
func (e *FaultEndpoint) Crashed() bool {
	e.crashMu.Lock()
	defer e.crashMu.Unlock()
	return e.crashed
}

// Revive clears an injected crash so a supervised restart can reuse the
// endpoint. Messages queued by the wrapped endpoint while crashed are
// delivered on the next Recv. Reviving a live endpoint is a no-op.
func (e *FaultEndpoint) Revive() {
	e.crashMu.Lock()
	e.crashed = false
	e.crashMu.Unlock()
}

// crash trips the injected-crash state, marks the tripping rule spent,
// and returns ErrCrashed annotated with the tripping operation.
func (e *FaultEndpoint) crash(op string, ruleIdx int) error {
	e.crashMu.Lock()
	e.crashed = true
	if ruleIdx >= 0 && ruleIdx < len(e.spent) {
		e.spent[ruleIdx] = true
	}
	e.crashMu.Unlock()
	e.count(func(s *FaultStats) { s.Crashes++ })
	return fmt.Errorf("%w: injected crash during %s on node %d", ErrCrashed, op, e.inner.ID())
}

// refuseIfCrashed reports the crashed state as an operation failure.
func (e *FaultEndpoint) refuseIfCrashed() error {
	e.crashMu.Lock()
	dead := e.crashed
	e.crashMu.Unlock()
	if !dead {
		return nil
	}
	e.count(func(s *FaultStats) { s.CrashRefused++ })
	return fmt.Errorf("%w: node %d is down", ErrCrashed, e.inner.ID())
}

func (e *FaultEndpoint) count(f func(*FaultStats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// match finds the first rule that applies to a message in the given
// direction and passes its probability draw. The returned index
// identifies the rule within the config (crash rules are one-shot and
// need their spent marker set when they fire).
func (e *FaultEndpoint) match(dir FaultDirection, peer int, payload []byte) (FaultRule, int, bool) {
	round, haveRound := -1, false
	if e.cfg.RoundOf != nil {
		round, haveRound = e.cfg.RoundOf(payload)
	}
	for i, r := range e.cfg.Rules {
		if r.direction()&dir == 0 {
			continue
		}
		if r.Kind == FaultCrash {
			e.crashMu.Lock()
			used := e.spent[i]
			e.crashMu.Unlock()
			if used {
				continue
			}
		}
		if r.Kind == FaultReorder && dir == DirSend {
			continue
		}
		if len(r.Nodes) > 0 && !slices.Contains(r.Nodes, e.inner.ID()) {
			continue
		}
		if len(r.Peers) > 0 && !slices.Contains(r.Peers, peer) {
			continue
		}
		if r.FromRound != 0 || r.ToRound != 0 {
			if !haveRound {
				continue
			}
			if round < r.FromRound || (r.ToRound != 0 && round > r.ToRound) {
				continue
			}
		}
		if r.Probability > 0 {
			e.rngMu.Lock()
			hit := e.rng.Float64() < r.Probability
			e.rngMu.Unlock()
			if !hit {
				continue
			}
		}
		return r, i, true
	}
	return FaultRule{}, -1, false
}

// Send implements Endpoint, applying send-direction rules.
func (e *FaultEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	if err := e.refuseIfCrashed(); err != nil {
		return err
	}
	rule, ruleIdx, ok := e.match(DirSend, to, payload)
	if !ok {
		return e.inner.Send(ctx, to, payload)
	}
	switch rule.Kind {
	case FaultCrash:
		return e.crash("send", ruleIdx)
	case FaultDrop:
		e.count(func(s *FaultStats) { s.SendDropped++ })
		return fmt.Errorf("%w: injected drop to node %d", ErrDropped, to)
	case FaultPartition:
		e.count(func(s *FaultStats) { s.SendPartitioned++ })
		return nil
	case FaultDelay:
		e.count(func(s *FaultStats) { s.SendDelayed++ })
		if err := sleepCtx(ctx, rule.Delay); err != nil {
			return err
		}
		return e.inner.Send(ctx, to, payload)
	case FaultDuplicate:
		copies := rule.Copies
		if copies == 0 {
			copies = 1
		}
		if err := e.inner.Send(ctx, to, payload); err != nil {
			return err
		}
		for i := 0; i < copies; i++ {
			if err := e.inner.Send(ctx, to, payload); err != nil {
				return err
			}
			e.count(func(s *FaultStats) { s.SendDuplicated++ })
		}
		return nil
	default:
		return e.inner.Send(ctx, to, payload)
	}
}

// reorderHold is the default time a reorder rule holds a message waiting
// for a successor to swap with.
const reorderHold = 2 * time.Millisecond

// Recv implements Endpoint, applying receive-direction rules. A held
// (reordering) message is delivered after its hold window even when no
// successor arrives, so reordering never turns into loss or a hang.
func (e *FaultEndpoint) Recv(ctx context.Context) (Message, error) {
	for {
		if err := e.refuseIfCrashed(); err != nil {
			return Message{}, err
		}
		// Queued deliveries (duplicate copies, swapped messages) first.
		e.recvMu.Lock()
		if len(e.ready) > 0 {
			msg := e.ready[0]
			e.ready = e.ready[1:]
			e.recvMu.Unlock()
			return msg, nil
		}
		heldMsg := e.held
		heldDeadline := e.heldDeadline
		e.recvMu.Unlock()

		recvCtx, cancel := ctx, context.CancelFunc(nil)
		if heldMsg != nil {
			recvCtx, cancel = context.WithDeadline(ctx, heldDeadline)
		}
		msg, err := e.inner.Recv(recvCtx)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			// If only the hold window expired, release the held message
			// in its original position — nothing arrived to swap with.
			if heldMsg != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				e.recvMu.Lock()
				if e.held == heldMsg {
					e.held = nil
					e.recvMu.Unlock()
					return *heldMsg, nil
				}
				e.recvMu.Unlock()
				continue
			}
			return Message{}, err
		}

		rule, ruleIdx, ok := e.match(DirRecv, msg.From, msg.Payload)
		if !ok {
			return e.deliver(msg)
		}
		switch rule.Kind {
		case FaultCrash:
			// The message that tripped the crash dies with the
			// process — it was read but never acted on.
			return Message{}, e.crash("recv", ruleIdx)
		case FaultDrop:
			e.count(func(s *FaultStats) { s.RecvDropped++ })
			continue
		case FaultPartition:
			e.count(func(s *FaultStats) { s.RecvPartitioned++ })
			continue
		case FaultDelay:
			e.count(func(s *FaultStats) { s.RecvDelayed++ })
			if err := sleepCtx(ctx, rule.Delay); err != nil {
				return Message{}, err
			}
			return e.deliver(msg)
		case FaultDuplicate:
			copies := rule.Copies
			if copies == 0 {
				copies = 1
			}
			e.recvMu.Lock()
			for i := 0; i < copies; i++ {
				e.ready = append(e.ready, msg)
			}
			e.recvMu.Unlock()
			e.count(func(s *FaultStats) { s.RecvDuplicated += int64(copies) })
			return e.deliver(msg)
		case FaultReorder:
			hold := rule.Delay
			if hold == 0 {
				hold = reorderHold
			}
			e.recvMu.Lock()
			if e.held == nil {
				m := msg
				e.held = &m
				e.heldDeadline = time.Now().Add(hold)
				e.recvMu.Unlock()
				continue
			}
			e.recvMu.Unlock()
			// A message is already held: deliver the newer one now and
			// release the held one next — adjacent order swapped.
			return e.deliver(msg)
		default:
			return e.deliver(msg)
		}
	}
}

// deliver returns msg, first releasing any reorder-held predecessor into
// the ready queue behind it (completing the swap).
func (e *FaultEndpoint) deliver(msg Message) (Message, error) {
	e.recvMu.Lock()
	if e.held != nil {
		e.ready = append(e.ready, *e.held)
		e.held = nil
		e.statsMu.Lock()
		e.stats.RecvReordered++
		e.statsMu.Unlock()
	}
	e.recvMu.Unlock()
	return msg, nil
}

// sleepCtx pauses for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
