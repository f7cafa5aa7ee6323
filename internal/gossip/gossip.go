// Package gossip replaces the O(N²) broadcast exchange of the
// decentralized allocation protocol with O(N)-message aggregation over
// the access network graph. Each round of the paper's section 5.2
// algorithm only needs the *average* marginal utility over the active
// set (plus a handful of extrema for the active-set fixed point and the
// feasible-step ratio test) — a sum-and-count that combines
// associatively. Two aggregation schemes are provided:
//
//   - Tree (ModeTree): a deterministic BFS spanning tree over the alive
//     subgraph. Each pass flows partial aggregates up to the root and the
//     root's decision back down, 2(N−1) messages per pass, typically two
//     passes per round. Sums travel as double-double (compensated) pairs,
//     so the root's mean is the correctly rounded mean regardless of tree
//     shape — the resulting trajectory is bit-identical to the broadcast
//     reference whenever the broadcast's naive left-to-right sum happens
//     to round the same way, and KKT-certifiable otherwise.
//
//   - Gossip (ModeGossip): push-sum averaging. Each tick every node
//     halves its (value, weight) state and ships half to one
//     deterministically chosen neighbor, while min/max extrema flood to
//     all neighbors (idempotent, exact after diameter ticks, so every
//     node reaches the identical termination decision). Both travel in
//     one message per neighbor per tick: the share rides in the message
//     to the chosen neighbor.
//
// Both are agent.Aggregators: every node runs the agent package's one
// round loop and reads through its inbox, and each membership epoch runs
// through agent.RunCluster. Membership churn is handled by the epoch
// supervisor, RunCluster: when an injected crash kills a node mid-round,
// the survivors' round times out, the supervisor marks the crashed nodes
// dead, renormalizes the surviving allocation mass, re-roots the tree
// over the alive set, and retries under a fresh epoch on a fresh
// network, so no message crosses from one epoch into the next.
package gossip

import (
	"errors"
	"fmt"
)

// Mode selects the aggregation scheme.
type Mode int

const (
	// ModeTree aggregates over a BFS spanning tree (the default).
	ModeTree Mode = iota
	// ModeGossip aggregates by push-sum averaging with flooded extrema.
	ModeGossip
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeTree:
		return "tree"
	case ModeGossip:
		return "gossip"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Sentinel errors.
var (
	// ErrRoundTimeout is returned when a round's aggregation cannot
	// complete before its deadline — the loud failure mode for partitions
	// and silent loss. The cluster supervisor retries a bounded number of
	// epochs before surfacing it.
	ErrRoundTimeout = errors.New("gossip: round timed out")
	// ErrPartitioned is returned when the alive subgraph is disconnected,
	// so no spanning tree (and no converging gossip) exists.
	ErrPartitioned = errors.New("gossip: alive subgraph is partitioned")
	// ErrProtocol is returned on an aggregation-protocol violation, such
	// as an active-set fixed point that fails to settle or nodes
	// disagreeing on the round count.
	ErrProtocol = errors.New("gossip: protocol violation")
	// ErrUncertified is returned when a converged allocation fails its
	// KKT certification — a converged-but-wrong plan is never accepted
	// silently.
	ErrUncertified = errors.New("gossip: converged allocation failed KKT certification")
)
