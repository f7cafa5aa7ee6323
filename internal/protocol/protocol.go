// Package protocol defines the wire messages and round bookkeeping of the
// decentralized allocation algorithm. Each iteration is one synchronous
// round: every node announces its marginal utility and current fragment
// (section 5.2 step a), and either every node plans the identical
// re-allocation locally (broadcast mode) or a designated central agent
// plans it and distributes the deltas (coordinator mode) — the paper's two
// aggregation schemes.
package protocol

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrBadMessage reports an undecodable or out-of-protocol message.
var ErrBadMessage = errors.New("protocol: bad message")

// ErrDuplicateReport reports an identical re-delivery of an
// already-buffered report. Under an at-least-once transport (retries,
// duplicating links) this is benign — the round data is unchanged — so
// callers should discard the message rather than abort the round. A
// duplicate with *different* content is still ErrBadMessage: two
// conflicting reports for one (round, node) indicate a faulty or
// byzantine peer.
var ErrDuplicateReport = errors.New("protocol: duplicate report")

// Kind discriminates wire messages.
type Kind string

const (
	// KindReport carries one node's marginal utility and allocation for
	// a round.
	KindReport Kind = "report"
	// KindUpdate carries the coordinator's planned deltas for a round.
	KindUpdate Kind = "update"
	// KindVectorReport carries one node's per-file marginal utilities
	// and fragments for a round (the multi-file protocol).
	KindVectorReport Kind = "vector-report"
)

// Report is section 5.2 step (a): node i announces ∂U/∂x_i and x_i.
// Curvature optionally carries ∂²U/∂x_i², which lets every node evaluate
// the Theorem-2 stepsize bound for the round (the appendix's dynamic-α
// suggestion) from the same data; it is zero when the dynamic stepsize is
// disabled.
type Report struct {
	Round     int     `json:"round"`
	Node      int     `json:"node"`
	Marginal  float64 `json:"marginal"`
	Alloc     float64 `json:"alloc"`
	Curvature float64 `json:"curvature,omitempty"`
	// Planned is a bitmask fingerprint (bit i = node i) of the group the
	// sender planned its previous round's step over. When quorum rounds
	// are enabled, receivers compare it against their own previous group
	// so two nodes that silently planned over different quorum subsets —
	// the one way the lockstep protocol could drift from Σx = 1 — fail
	// loudly instead. Zero means "no previous plan" (round 0, or a
	// resume without history) and is never checked.
	Planned uint64 `json:"planned,omitempty"`
}

// Update is the coordinator's reply in central-agent mode: the full delta
// vector for the round and whether the termination criterion fired.
type Update struct {
	Round int       `json:"round"`
	Delta []float64 `json:"delta"`
	Done  bool      `json:"done"`
}

// VectorReport is the multi-file analogue of Report: node i announces
// ∂U/∂x_i^f and x_i^f for every file f it may host.
type VectorReport struct {
	Round     int       `json:"round"`
	Node      int       `json:"node"`
	Marginals []float64 `json:"marginals"`
	Allocs    []float64 `json:"allocs"`
}

// envelope wraps a message with its kind for wire framing.
type envelope struct {
	Kind          Kind            `json:"kind"`
	Report        *Report         `json:"report,omitempty"`
	Update        *Update         `json:"update,omitempty"`
	Vector        *VectorReport   `json:"vector,omitempty"`
	Access        *Access         `json:"access,omitempty"`
	AccessReply   *AccessReply    `json:"access_reply,omitempty"`
	Plan          *Plan           `json:"plan,omitempty"`
	PlanAck       *PlanAck        `json:"plan_ack,omitempty"`
	Ping          *Ping           `json:"ping,omitempty"`
	Pong          *Pong           `json:"pong,omitempty"`
	AggUp         *AggUp          `json:"agg_up,omitempty"`
	AggDown       *AggDown        `json:"agg_down,omitempty"`
	GossipShare   *GossipShare    `json:"gossip_share,omitempty"`
	GossipExtrema *GossipExtrema  `json:"gossip_extrema,omitempty"`
	Extra         json.RawMessage `json:"extra,omitempty"`
}

// Envelope is a decoded wire message: exactly one of the payload fields
// matching Kind is non-nil.
type Envelope struct {
	Kind          Kind
	Report        *Report
	Update        *Update
	Vector        *VectorReport
	Access        *Access
	AccessReply   *AccessReply
	Plan          *Plan
	PlanAck       *PlanAck
	Ping          *Ping
	Pong          *Pong
	AggUp         *AggUp
	AggDown       *AggDown
	GossipShare   *GossipShare
	GossipExtrema *GossipExtrema
}

// EncodeReport serializes a Report.
func EncodeReport(r Report) ([]byte, error) {
	b, err := json.Marshal(envelope{Kind: KindReport, Report: &r})
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding report: %w", err)
	}
	return b, nil
}

// EncodeUpdate serializes an Update.
func EncodeUpdate(u Update) ([]byte, error) {
	b, err := json.Marshal(envelope{Kind: KindUpdate, Update: &u})
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding update: %w", err)
	}
	return b, nil
}

// EncodeVectorReport serializes a VectorReport.
func EncodeVectorReport(v VectorReport) ([]byte, error) {
	b, err := json.Marshal(envelope{Kind: KindVectorReport, Vector: &v})
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding vector report: %w", err)
	}
	return b, nil
}

// Decode parses a wire payload, auto-detecting the codec: a frame
// starting with the binary magic byte is decoded binary, anything else
// falls back to the JSON envelope. That per-message detection is the
// negotiation story — a peer that only speaks JSON is understood without
// configuration, whatever the local side writes.
func Decode(payload []byte) (Envelope, error) {
	if IsBinary(payload) {
		return decodeBinary(payload)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return Envelope{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	switch env.Kind {
	case KindReport:
		if env.Report == nil {
			return Envelope{}, fmt.Errorf("%w: report envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindReport, Report: env.Report}, nil
	case KindUpdate:
		if env.Update == nil {
			return Envelope{}, fmt.Errorf("%w: update envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindUpdate, Update: env.Update}, nil
	case KindVectorReport:
		if env.Vector == nil {
			return Envelope{}, fmt.Errorf("%w: vector-report envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindVectorReport, Vector: env.Vector}, nil
	case KindAccess:
		if env.Access == nil {
			return Envelope{}, fmt.Errorf("%w: access envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindAccess, Access: env.Access}, nil
	case KindAccessReply:
		if env.AccessReply == nil {
			return Envelope{}, fmt.Errorf("%w: access-reply envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindAccessReply, AccessReply: env.AccessReply}, nil
	case KindPlan:
		if env.Plan == nil {
			return Envelope{}, fmt.Errorf("%w: plan envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindPlan, Plan: env.Plan}, nil
	case KindPlanAck:
		if env.PlanAck == nil {
			return Envelope{}, fmt.Errorf("%w: plan-ack envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindPlanAck, PlanAck: env.PlanAck}, nil
	case KindPing:
		if env.Ping == nil {
			return Envelope{}, fmt.Errorf("%w: ping envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindPing, Ping: env.Ping}, nil
	case KindPong:
		if env.Pong == nil {
			return Envelope{}, fmt.Errorf("%w: pong envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindPong, Pong: env.Pong}, nil
	case KindAggUp:
		if env.AggUp == nil {
			return Envelope{}, fmt.Errorf("%w: agg-up envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindAggUp, AggUp: env.AggUp}, nil
	case KindAggDown:
		if env.AggDown == nil {
			return Envelope{}, fmt.Errorf("%w: agg-down envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindAggDown, AggDown: env.AggDown}, nil
	case KindGossipShare:
		if env.GossipShare == nil {
			return Envelope{}, fmt.Errorf("%w: gossip-share envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindGossipShare, GossipShare: env.GossipShare}, nil
	case KindGossipExtrema:
		if env.GossipExtrema == nil {
			return Envelope{}, fmt.Errorf("%w: gossip-extrema envelope without body", ErrBadMessage)
		}
		return Envelope{Kind: KindGossipExtrema, GossipExtrema: env.GossipExtrema}, nil
	default:
		return Envelope{}, fmt.Errorf("%w: unknown kind %q", ErrBadMessage, env.Kind)
	}
}

// RoundOf extracts the round number carried by an encoded protocol
// message, whatever its kind. It reports false for payloads that do not
// decode as protocol messages. Transport-level tooling (fault injection,
// tracing) uses it to scope behavior to round windows without the
// transport package importing the protocol.
func RoundOf(payload []byte) (int, bool) {
	env, err := Decode(payload)
	if err != nil {
		return 0, false
	}
	switch env.Kind {
	case KindReport:
		return env.Report.Round, true
	case KindUpdate:
		return env.Update.Round, true
	case KindVectorReport:
		return env.Vector.Round, true
	case KindAggUp:
		return env.AggUp.Round, true
	case KindAggDown:
		return env.AggDown.Round, true
	case KindGossipShare:
		return env.GossipShare.Round, true
	case KindGossipExtrema:
		return env.GossipExtrema.Round, true
	default:
		return 0, false
	}
}

// RoundBuffer collects per-round reports, tolerating peers that run one
// round ahead (a fast node may broadcast round r+1 before a slow peer has
// read round r).
type RoundBuffer struct {
	peers   int
	pending map[int]map[int]Report // round -> node -> report
}

// NewRoundBuffer sizes the buffer for a cluster of peers nodes.
func NewRoundBuffer(peers int) *RoundBuffer {
	return &RoundBuffer{
		peers:   peers,
		pending: make(map[int]map[int]Report),
	}
}

// Add stores a report. An identical re-delivery for the same
// (round, node) returns ErrDuplicateReport (benign, discardable); a
// conflicting duplicate is rejected as ErrBadMessage — the protocol sends
// one report per peer per round, so two different ones indicate a faulty
// or byzantine peer.
func (b *RoundBuffer) Add(r Report) error {
	if r.Node < 0 || r.Node >= b.peers {
		return fmt.Errorf("%w: report from unknown node %d", ErrBadMessage, r.Node)
	}
	byNode, ok := b.pending[r.Round]
	if !ok {
		byNode = make(map[int]Report, b.peers)
		b.pending[r.Round] = byNode
	}
	if prev, dup := byNode[r.Node]; dup {
		if prev == r {
			return fmt.Errorf("%w: node %d round %d", ErrDuplicateReport, r.Node, r.Round)
		}
		return fmt.Errorf("%w: conflicting duplicate report from node %d for round %d", ErrBadMessage, r.Node, r.Round)
	}
	byNode[r.Node] = r
	return nil
}

// Complete reports whether `want` distinct reports have arrived for the
// round.
func (b *RoundBuffer) Complete(round, want int) bool {
	return len(b.pending[round]) >= want
}

// Count returns the number of distinct reports buffered for the round.
func (b *RoundBuffer) Count(round int) int {
	return len(b.pending[round])
}

// Peek returns a copy of the round's buffered reports in ascending node
// order, leaving them in the buffer.
func (b *RoundBuffer) Peek(round int) []Report {
	byNode := b.pending[round]
	if len(byNode) == 0 {
		return nil
	}
	out := make([]Report, 0, len(byNode))
	for node := 0; node < b.peers; node++ {
		if r, ok := byNode[node]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Take removes and returns the round's reports keyed by node id.
func (b *RoundBuffer) Take(round int) map[int]Report {
	byNode := b.pending[round]
	delete(b.pending, round)
	return byNode
}

// VectorRoundBuffer is RoundBuffer's multi-file counterpart.
type VectorRoundBuffer struct {
	peers   int
	pending map[int]map[int]VectorReport
}

// NewVectorRoundBuffer sizes the buffer for a cluster of peers nodes.
func NewVectorRoundBuffer(peers int) *VectorRoundBuffer {
	return &VectorRoundBuffer{
		peers:   peers,
		pending: make(map[int]map[int]VectorReport),
	}
}

// Add stores a vector report. As with RoundBuffer.Add, an identical
// re-delivery returns ErrDuplicateReport and a conflicting duplicate or
// unknown node is ErrBadMessage.
func (b *VectorRoundBuffer) Add(r VectorReport) error {
	if r.Node < 0 || r.Node >= b.peers {
		return fmt.Errorf("%w: vector report from unknown node %d", ErrBadMessage, r.Node)
	}
	byNode, ok := b.pending[r.Round]
	if !ok {
		byNode = make(map[int]VectorReport, b.peers)
		b.pending[r.Round] = byNode
	}
	if prev, dup := byNode[r.Node]; dup {
		if prev.Round == r.Round && prev.Node == r.Node && eqFloats(prev.Marginals, r.Marginals) && eqFloats(prev.Allocs, r.Allocs) {
			return fmt.Errorf("%w: node %d round %d", ErrDuplicateReport, r.Node, r.Round)
		}
		return fmt.Errorf("%w: conflicting duplicate vector report from node %d for round %d", ErrBadMessage, r.Node, r.Round)
	}
	byNode[r.Node] = r
	return nil
}

// eqFloats compares two float slices element-wise (bit equality).
func eqFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Complete reports whether `want` distinct reports arrived for the round.
func (b *VectorRoundBuffer) Complete(round, want int) bool {
	return len(b.pending[round]) >= want
}

// Take removes and returns the round's reports keyed by node id.
func (b *VectorRoundBuffer) Take(round int) map[int]VectorReport {
	byNode := b.pending[round]
	delete(b.pending, round)
	return byNode
}
