package protocol

import "fmt"

// Aggregation-plane messages. The gossip package replaces the O(N²)
// broadcast round with tree or gossip aggregation: the round's step only
// needs the *average* marginal utility over the active set, a
// sum-and-count that combines associatively. These kinds carry the
// partial aggregates. Sum fields travel as double-double pairs (sum +
// compensation) so the combined mean stays within 1 ulp of the exact
// mean whatever the combine order; optional extrema travel with explicit
// presence fields (BoundCount, OutNode, HasInt, ...) instead of ±Inf
// sentinels, because the wire codec rejects non-finite floats.
const (
	// KindAggUp carries a subtree's partial aggregate toward the root of
	// the spanning tree.
	KindAggUp Kind = "agg-up"
	// KindAggDown carries the root's combined result (and the active-set
	// decision derived from it) back down the tree.
	KindAggDown Kind = "agg-down"
	// KindGossipExtrema is the gossip aggregation mode's tick message:
	// the flooded min/max state (idempotent, exact after diameter ticks),
	// plus the push-sum share when the receiver is the tick's target.
	KindGossipExtrema Kind = "gossip-extrema"
)

// Aggregate is one subtree's contribution to a tree-aggregation pass:
// compensated sums of marginal utility, curvature and allocation, the
// active count, and the extrema the root needs for the active-set
// fixed point (paper section 5.2 steps (i)–(v)) and the feasible-step
// ratio test. Combine lives in the gossip package; this struct is only
// the wire shape.
type Aggregate struct {
	// SumG/SumGC is the double-double sum of marginal utilities over the
	// subtree's active nodes (principal + compensation).
	SumG  float64 `json:"sum_g"`
	SumGC float64 `json:"sum_gc,omitempty"`
	// SumH/SumHC is the double-double sum of curvatures over active nodes.
	SumH  float64 `json:"sum_h"`
	SumHC float64 `json:"sum_hc,omitempty"`
	// SumX/SumXC is the double-double sum of allocations over *all* alive
	// subtree nodes (feasibility bookkeeping, not just the active set).
	SumX  float64 `json:"sum_x"`
	SumXC float64 `json:"sum_xc,omitempty"`
	// Count is the number of active nodes aggregated.
	Count int `json:"count"`
	// MinG/MaxG are the marginal-utility extrema over active nodes
	// (valid iff Count > 0); the root derives the termination spread.
	MinG float64 `json:"min_g,omitempty"`
	MaxG float64 `json:"max_g,omitempty"`
	// BoundCount counts active nodes sitting on the non-negativity
	// boundary; BoundMinG is their minimum marginal utility (valid iff
	// BoundCount > 0). The root drops boundary nodes when BoundMinG ≤ avg.
	BoundCount int     `json:"bound_count,omitempty"`
	BoundMinG  float64 `json:"bound_min_g,omitempty"`
	// OutNode/OutG identify the excluded node with the highest marginal
	// utility (lowest id on ties, matching core.PlanStep's scan order);
	// OutNode is -1 when no node is excluded.
	OutNode int     `json:"out_node"`
	OutG    float64 `json:"out_g,omitempty"`
	// Changed counts nodes whose active flag flipped after the previous
	// pass's result; zero means the active set reached its fixed point.
	Changed int `json:"changed,omitempty"`
	// RatioCount/MinRatio carry the feasible-direction ratio test
	// min x_i / (α·(avg_prev − g_i)) over active nodes with g_i < avg_prev
	// (valid iff RatioCount > 0).
	RatioCount int     `json:"ratio_count,omitempty"`
	MinRatio   float64 `json:"min_ratio,omitempty"`
}

// AggUp is one node's (or subtree's) aggregate flowing up the tree.
type AggUp struct {
	Round int       `json:"round"`
	Pass  int       `json:"pass"`
	Epoch int       `json:"epoch"`
	Node  int       `json:"node"`
	Agg   Aggregate `json:"agg"`
}

// AggDown is the root's combined result for one pass, forwarded down the
// tree so every node applies the identical active-set decision.
type AggDown struct {
	Round int `json:"round"`
	Pass  int `json:"pass"`
	Epoch int `json:"epoch"`
	// Avg is the mean marginal utility over the active set, computed once
	// at the root so every node sees identical bits.
	Avg float64 `json:"avg"`
	// Count is the active-set size behind Avg.
	Count int `json:"count"`
	// Drop, when true, directs active boundary nodes with g ≤ Avg to
	// leave the active set this pass (no re-admission happens then).
	Drop bool `json:"drop,omitempty"`
	// Readmit names the single excluded node re-admitted this pass
	// (-1: none).
	Readmit int `json:"readmit"`
	// Final marks the pass that ends the round: the active set reached
	// its fixed point and the fields below are meaningful.
	Final bool `json:"final,omitempty"`
	// Truncation is the feasible-step scaling factor t ≤ 1.
	Truncation float64 `json:"truncation,omitempty"`
	// Spread is max−min marginal utility over the final active set.
	Spread float64 `json:"spread,omitempty"`
	// Converged reports spread < ε: nodes exit without applying a step.
	Converged bool `json:"converged,omitempty"`
	// NoOp reports a degenerate active set (≤ 1 member): the step moves
	// nothing and nodes exit unconverged, like core.Step.IsNoOp.
	NoOp bool `json:"no_op,omitempty"`
}

// GossipExtrema is the one message a node sends each neighbor per
// gossip tick. It carries the flooded min/max state of the round:
// combining is idempotent, so after diameter ticks every node holds the
// exact extrema and the termination decision is identical everywhere.
// The message to the tick's push-sum target also carries the share.
type GossipExtrema struct {
	Round int `json:"round"`
	Tick  int `json:"tick"`
	Epoch int `json:"epoch"`
	Node  int `json:"node"`
	// HasInt guards IntMinG/IntMaxG, the marginal-utility extrema over
	// interior (active) nodes seen so far.
	HasInt  bool    `json:"has_int,omitempty"`
	IntMinG float64 `json:"int_min_g,omitempty"`
	IntMaxG float64 `json:"int_max_g,omitempty"`
	// BoundOK is the AND over boundary nodes of their local KKT check
	// (marginal utility not above the estimated average beyond slack).
	BoundOK bool `json:"bound_ok"`
	// HasOut guards OutG/OutNode, the best excluded node for re-admission.
	HasOut  bool    `json:"has_out,omitempty"`
	OutG    float64 `json:"out_g,omitempty"`
	OutNode int     `json:"out_node"`
	// HasShare guards the push-sum share: the sender keeps half of its
	// (value, weight) state and ships the other half to one deterministic
	// neighbor per tick. SG over WA estimates the active-set mean
	// marginal; SX over WN estimates the mean allocation (feasibility
	// repair). Sums are double-double so total mass is conserved to the
	// last bit.
	HasShare bool    `json:"has_share,omitempty"`
	SG       float64 `json:"sg,omitempty"`
	SGC      float64 `json:"sgc,omitempty"`
	WA       float64 `json:"wa,omitempty"`
	SX       float64 `json:"sx,omitempty"`
	SXC      float64 `json:"sxc,omitempty"`
	WN       float64 `json:"wn,omitempty"`
}

// EncodeAggUp serializes an AggUp; c must be CodecBinary.
func EncodeAggUp(c Codec, m AggUp) ([]byte, error) {
	return encodeWith(c, Envelope{Kind: KindAggUp, AggUp: &m})
}

// EncodeAggDown serializes an AggDown; c must be CodecBinary.
func EncodeAggDown(c Codec, m AggDown) ([]byte, error) {
	return encodeWith(c, Envelope{Kind: KindAggDown, AggDown: &m})
}

// EncodeGossipExtrema serializes a GossipExtrema.
func EncodeGossipExtrema(m GossipExtrema) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindGossipExtrema, GossipExtrema: &m})
}

// encodeWith checks the codec, then encodes.
func encodeWith(c Codec, env Envelope) ([]byte, error) {
	if c != CodecBinary {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadMessage, int(c))
	}
	return EncodeBinary(env)
}
