// Package agent implements the per-node runtime of the decentralized file
// allocation algorithm. Each agent knows only its local model — its
// traffic-weighted access cost C_i, service rate μ_i, the system-wide rate
// λ and scaling factor k — computes its own marginal utility, exchanges it
// with its peers each round (section 5.2 step a), and applies the identical
// deterministic re-allocation every peer computes (broadcast mode) or the
// deltas a designated central agent distributes (coordinator mode).
//
// Because every node plans steps with the same core.PlanStep over the same
// round data, the distributed trajectory is bit-identical to the
// centralized Allocator's — verified by the integration tests and the E9
// ablation.
//
// Every endpoint-backed solve runs the one round loop in round.go and
// reads through the one Inbox; the exchange is an Aggregator. This
// package has the broadcast and coordinator aggregators, and the gossip
// package runs its spanning-tree and push-sum aggregators on the same
// loop through RunWith and RunCluster.
package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// Sentinel errors.
var (
	// ErrBadConfig reports invalid agent configuration.
	ErrBadConfig = errors.New("agent: invalid configuration")
	// ErrRoundTimeout reports a round that did not complete in time
	// (lost peer or dropped message).
	ErrRoundTimeout = errors.New("agent: round timed out")
	// ErrProtocol reports a peer violating the protocol.
	ErrProtocol = errors.New("agent: protocol violation")
	// ErrLapped reports a resume that came back after the cluster had
	// already quorum-completed rounds without this node: a peer's report
	// arrived for a round more than one ahead of ours. Continuing would
	// plan steps over a different group than the survivors and drift
	// from Σx = 1, so the agent fails loudly; re-entry goes through the
	// epoch rejoin path instead.
	ErrLapped = errors.New("agent: resumed behind the cluster")
	// ErrDesync reports that a peer planned the previous round's step
	// over a different group than we did — the quorum-round fingerprints
	// disagree. Both sides stop before the divergence can spread.
	ErrDesync = errors.New("agent: round group desynchronized")
	// ErrCheckpoint reports a failed checkpoint save; the agent stops
	// rather than keep running without durable progress.
	ErrCheckpoint = errors.New("agent: checkpoint save failed")
)

// CheckpointSink persists an agent's round state so a supervised restart
// can resume the run bit-identically. SaveRound is called at the top of
// every round, before any message of the round is sent; the recovery
// package's Store is the durable implementation. A nil sink disables
// checkpointing.
type CheckpointSink interface {
	// SaveRound records the state the round starts from. The state's
	// slices belong to the running agent: a sink that keeps them must
	// copy them.
	SaveRound(st RoundState) error
}

// RoundState is an agent's state at the top of a round: everything a
// restarted run needs to continue the uninterrupted trajectory bit for
// bit. CheckpointSink.SaveRound receives it, and Config.Resume restores it.
type RoundState struct {
	// Round is the round the state belongs to — the round to resume at.
	Round int
	// X is the node's own fragment.
	X float64
	// FullX is the node's view of the full allocation; nil starts from
	// zeros (round 0 fills it from reports).
	FullX []float64
	// Alive is the live-membership view; nil means all nodes alive. When
	// set it must include this node.
	Alive []bool
	// Planned is the bitmask fingerprint of the previous round's planning
	// group; zero means "no previous plan" and disables the desync check
	// for the first resumed round.
	Planned uint64
	// Early holds this round's peer reports already read while the
	// previous round was being collected. Their senders never send them
	// again, so a resume that lost them would wait out the round short of
	// them and drift from its peers.
	Early []protocol.Report
}

// LocalModel is the node-local knowledge needed to evaluate the marginal
// utility of the equation-2 objective at the node's own fragment:
//
//	∂U/∂x_i = −(C_i + k·μ_i/(μ_i − λ·x_i)²)
//
// C_i is computed once at setup time from the (static) topology and access
// rates; λ is the system-wide access rate agreed at setup.
type LocalModel struct {
	// AccessCost is C_i.
	AccessCost float64
	// ServiceRate is μ_i.
	ServiceRate float64
	// Lambda is the system-wide access generation rate λ.
	Lambda float64
	// K is the delay scaling factor.
	K float64
}

// Marginal returns ∂U/∂x_i at the local fragment size x.
func (m LocalModel) Marginal(x float64) (float64, error) {
	room := m.ServiceRate - m.Lambda*x
	if room <= 0 {
		return 0, fmt.Errorf("%w: local queue saturated (μ=%v, λ·x=%v)", core.ErrUnstable, m.ServiceRate, m.Lambda*x)
	}
	return -(m.AccessCost + m.K*m.ServiceRate/(room*room)), nil
}

// Curvature returns ∂²U/∂x_i² at the local fragment size x, the quantity
// exchanged for the dynamic Theorem-2 stepsize.
func (m LocalModel) Curvature(x float64) (float64, error) {
	room := m.ServiceRate - m.Lambda*x
	if room <= 0 {
		return 0, fmt.Errorf("%w: local queue saturated (μ=%v, λ·x=%v)", core.ErrUnstable, m.ServiceRate, m.Lambda*x)
	}
	return -2 * m.K * m.ServiceRate * m.Lambda / (room * room * room), nil
}

// Mode selects the aggregation scheme of section 5.1.
type Mode int

const (
	// Broadcast has every node send its marginal utility to every other
	// node; each node then computes the identical re-allocation locally.
	Broadcast Mode = iota + 1
	// Coordinator has every node report to a designated central agent,
	// which plans the step and distributes the deltas.
	Coordinator
)

func (m Mode) String() string {
	switch m {
	case Broadcast:
		return "broadcast"
	case Coordinator:
		return "coordinator"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles one agent.
type Config struct {
	// Endpoint connects the agent to its peers.
	Endpoint transport.Endpoint
	// Model is the node-local cost knowledge.
	Model LocalModel
	// Init is the node's initial fragment x_i (the cluster-wide initial
	// allocation must be feasible).
	Init float64
	// Alpha is the stepsize (default 0.1).
	Alpha float64
	// Epsilon is the termination threshold (default 1e-3).
	Epsilon float64
	// MaxRounds bounds the protocol (default 10000).
	MaxRounds int
	// Mode selects broadcast or coordinator aggregation (default
	// Broadcast).
	Mode Mode
	// CoordinatorID names the central agent in Coordinator mode.
	CoordinatorID int
	// RoundTimeout bounds each round's message wait (default 10s).
	RoundTimeout time.Duration
	// SendRetries is the number of times a failed send is retried
	// before the agent gives up (default 0: fail fast). The protocol's
	// rounds are lockstep, so a retried duplicate can never arrive —
	// each (round, node) report is sent exactly once successfully.
	SendRetries int
	// DynamicAlphaSafety, when in (0, 1], makes every node evaluate the
	// Theorem-2 stepsize from the round's exchanged marginals and
	// curvatures (scaled by the safety factor) instead of the fixed
	// Alpha — the appendix's "dynamically calculate it at each
	// iteration" suggestion, computed identically on every node.
	// Broadcast mode only.
	DynamicAlphaSafety float64
	// SecondOrder switches the re-allocation rule to the section 8.2
	// curvature-scaled step (Δx_i = α(g_i − ν)/|h_i| with the weighted
	// average ν); curvatures are exchanged alongside marginals. Alpha
	// then defaults to 1, the Newton step. Broadcast mode only;
	// mutually exclusive with DynamicAlphaSafety.
	SecondOrder bool
	// Observer receives round-level events (default: none). A shared
	// Observer must be safe for concurrent use.
	Observer Observer

	// Quorum, when nonzero, lets a broadcast round complete short on its
	// RoundTimeout deadline as long as at least Quorum nodes (including
	// this one) reported; the round's step is then planned over the
	// reporters only. Must be in [2, n]. Broadcast mode only, n ≤ 64
	// (the Planned fingerprint is a 64-bit mask), and incompatible with
	// DynamicAlphaSafety and SecondOrder, whose stepsize math assumes
	// full rounds. Zero (the default) keeps the strict lockstep
	// protocol: a short round is ErrRoundTimeout.
	Quorum int
	// DepartAfter, when nonzero, declares a peer departed after it
	// missed that many consecutive quorum rounds; the survivors then
	// redistribute its fraction (core.Renormalize) and continue on the
	// reduced support. Requires Quorum — departure detection rides on
	// rounds that complete without the silent peer.
	DepartAfter int
	// Checkpoint, when non-nil, persists the round state at the top of
	// every round so a supervised restart can resume bit-identically.
	// Broadcast mode only.
	Checkpoint CheckpointSink
	// Resume, when non-nil, starts the run from a saved round state — a
	// checkpoint, or a new epoch's membership — instead of round 0 with
	// Init. Broadcast mode only.
	Resume *RoundState
}

func (c *Config) fill() error {
	if c.Endpoint == nil {
		return fmt.Errorf("%w: nil endpoint", ErrBadConfig)
	}
	if c.Alpha == 0 {
		if c.SecondOrder {
			c.Alpha = 1 // Newton step
		} else {
			c.Alpha = 0.1
		}
	}
	if c.Alpha < 0 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("%w: alpha = %v", ErrBadConfig, c.Alpha)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon = %v", ErrBadConfig, c.Epsilon)
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 10000
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("%w: max rounds = %d", ErrBadConfig, c.MaxRounds)
	}
	if c.Mode == 0 {
		c.Mode = Broadcast
	}
	if c.Mode != Broadcast && c.Mode != Coordinator {
		return fmt.Errorf("%w: mode = %v", ErrBadConfig, c.Mode)
	}
	if c.CoordinatorID < 0 || c.CoordinatorID >= c.Endpoint.Peers() {
		return fmt.Errorf("%w: coordinator id %d outside cluster of %d", ErrBadConfig, c.CoordinatorID, c.Endpoint.Peers())
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 10 * time.Second
	}
	if c.Observer == nil {
		c.Observer = NopObserver{}
	}
	if c.SendRetries < 0 {
		return fmt.Errorf("%w: send retries = %d", ErrBadConfig, c.SendRetries)
	}
	if c.DynamicAlphaSafety < 0 || c.DynamicAlphaSafety > 1 || math.IsNaN(c.DynamicAlphaSafety) {
		return fmt.Errorf("%w: dynamic-alpha safety = %v", ErrBadConfig, c.DynamicAlphaSafety)
	}
	if c.Mode != Broadcast && (c.DynamicAlphaSafety > 0 || c.SecondOrder || c.Quorum != 0 || c.Checkpoint != nil || c.Resume != nil) {
		return fmt.Errorf("%w: dynamic alpha, second-order steps, quorum rounds, checkpoints and resuming require broadcast mode", ErrBadConfig)
	}
	if c.SecondOrder && c.DynamicAlphaSafety > 0 {
		return fmt.Errorf("%w: second-order step and dynamic alpha are mutually exclusive", ErrBadConfig)
	}
	n := c.Endpoint.Peers()
	if c.Quorum != 0 {
		if c.Quorum < 2 || c.Quorum > n {
			return fmt.Errorf("%w: quorum %d outside [2, %d]", ErrBadConfig, c.Quorum, n)
		}
		if n > 64 {
			return fmt.Errorf("%w: quorum rounds need n ≤ 64 (planning-group fingerprint is a 64-bit mask), have %d", ErrBadConfig, n)
		}
		if c.DynamicAlphaSafety > 0 || c.SecondOrder {
			return fmt.Errorf("%w: quorum rounds are incompatible with dynamic alpha and second-order steps", ErrBadConfig)
		}
	}
	if c.DepartAfter < 0 {
		return fmt.Errorf("%w: depart-after = %d", ErrBadConfig, c.DepartAfter)
	}
	if c.DepartAfter > 0 && c.Quorum == 0 {
		return fmt.Errorf("%w: departure detection requires quorum rounds", ErrBadConfig)
	}
	r := c.Resume
	if r == nil {
		return nil
	}
	if r.Round < 0 || r.Round >= c.MaxRounds {
		return fmt.Errorf("%w: start round %d outside [0, %d)", ErrBadConfig, r.Round, c.MaxRounds)
	}
	for _, rep := range r.Early {
		if rep.Round != r.Round {
			return fmt.Errorf("%w: early report for round %d when resuming at round %d", ErrBadConfig, rep.Round, r.Round)
		}
	}
	if r.FullX != nil && len(r.FullX) != n {
		return fmt.Errorf("%w: initial full allocation has %d entries for cluster of %d", ErrBadConfig, len(r.FullX), n)
	}
	if r.Alive != nil {
		if len(r.Alive) != n {
			return fmt.Errorf("%w: initial alive set has %d entries for cluster of %d", ErrBadConfig, len(r.Alive), n)
		}
		if !r.Alive[c.Endpoint.ID()] {
			return fmt.Errorf("%w: initial alive set excludes this node", ErrBadConfig)
		}
	}
	return nil
}

// Outcome is one agent's view of the finished protocol.
type Outcome struct {
	// X is the node's final fragment.
	X float64
	// FullX is the full final allocation as seen by this node. It is
	// populated on every node that plans steps: all of them in Broadcast
	// mode, the coordinator in Coordinator mode. Other agents in
	// Coordinator mode only learn their own fragment.
	FullX []float64
	// Rounds is the number of re-allocation rounds performed.
	Rounds int
	// Converged reports whether the ε-criterion fired (vs MaxRounds).
	Converged bool
	// MessagesSent counts protocol messages this agent sent, and
	// BytesSent their payload bytes.
	MessagesSent int
	BytesSent    int
	// Alive is the node's final live-membership view, populated with
	// FullX; entries are false for peers declared departed during the
	// run.
	Alive []bool
}

// Run executes the agent until convergence, MaxRounds, or context
// cancellation. It is the caller's responsibility to run one agent per
// node id of the endpoint's cluster.
func Run(ctx context.Context, cfg Config) (Outcome, error) {
	out, err := RunWith(ctx, cfg, nil)
	if err != nil {
		return Outcome{MessagesSent: out.MessagesSent, BytesSent: out.BytesSent}, err
	}
	return out, nil
}

// RunWith runs the agent's round loop on the aggregator agg, or on
// cfg.Mode's when agg is nil. A custom aggregator takes no checkpoints.
// Unlike Run's, the outcome carries the node's fragment and the rounds
// it completed even when the run fails, so a supervisor can carry a
// survivor's state into a new membership epoch.
func RunWith(ctx context.Context, cfg Config, agg Aggregator) (Outcome, error) {
	init := cfg.Init
	if cfg.Resume != nil {
		init = cfg.Resume.X
	}
	n, err := newNode(cfg, cfg.Model, []float64{init}, agg, false)
	if err != nil {
		return Outcome{}, err
	}
	return n.run(ctx)
}
