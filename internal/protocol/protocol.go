// Package protocol defines the wire messages and round bookkeeping of the
// decentralized allocation algorithm. Each iteration is one synchronous
// round: every node announces its marginal utility and current fragment
// (section 5.2 step a), and either every node plans the identical
// re-allocation locally (broadcast mode) or a designated central agent
// plans it and distributes the deltas (coordinator mode) — the paper's two
// aggregation schemes.
package protocol

import (
	"errors"
	"fmt"
	"slices"
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
	GossipExtrema *GossipExtrema
}

// EncodeReport serializes a Report.
func EncodeReport(r Report) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindReport, Report: &r})
}

// EncodeUpdate serializes an Update.
func EncodeUpdate(u Update) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindUpdate, Update: &u})
}

// EncodeVectorReport serializes a VectorReport.
func EncodeVectorReport(v VectorReport) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindVectorReport, Vector: &v})
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
	round, _, ok := env.Stage()
	return round, ok
}

// Stage returns the round a message belongs to and its stage within the
// round: the pass of a tree-aggregation message, the tick of a push-sum
// one, 0 for reports and updates. ok is false for the kinds that belong
// to no round.
func (e *Envelope) Stage() (round, stage int, ok bool) {
	switch e.Kind {
	case KindReport:
		return e.Report.Round, 0, true
	case KindUpdate:
		return e.Update.Round, 0, true
	case KindVectorReport:
		return e.Vector.Round, 0, true
	case KindAggUp:
		return e.AggUp.Round, e.AggUp.Pass, true
	case KindAggDown:
		return e.AggDown.Round, e.AggDown.Pass, true
	case KindGossipExtrema:
		return e.GossipExtrema.Round, e.GossipExtrema.Tick, true
	default:
		return 0, 0, false
	}
}

// roundable is a report kind a RoundBuffer collects: one message per node
// per round. Report is the single-file kind and VectorReport the
// multi-file one.
type roundable[R any] interface {
	Report | VectorReport
	origin() (round, node int)
	same(R) bool
}

func (r Report) origin() (round, node int) { return r.Round, r.Node }
func (r Report) same(o Report) bool        { return r == o }

func (v VectorReport) origin() (round, node int) { return v.Round, v.Node }
func (v VectorReport) same(o VectorReport) bool {
	return v.Round == o.Round && v.Node == o.Node && slices.Equal(v.Marginals, o.Marginals) && slices.Equal(v.Allocs, o.Allocs)
}

// RoundBuffer collects per-round reports, tolerating peers that run one
// round ahead (a fast node may broadcast round r+1 before a slow peer has
// read round r).
type RoundBuffer[R roundable[R]] struct {
	peers   int
	pending map[int]map[int]R // round -> node -> report
}

// NewRoundBuffer sizes the buffer for a cluster of peers nodes.
func NewRoundBuffer[R roundable[R]](peers int) *RoundBuffer[R] {
	return &RoundBuffer[R]{
		peers:   peers,
		pending: make(map[int]map[int]R),
	}
}

// Add stores a report. An identical re-delivery for the same
// (round, node) returns ErrDuplicateReport (benign, discardable); a
// conflicting duplicate is rejected as ErrBadMessage — the protocol sends
// one report per peer per round, so two different ones indicate a faulty
// or byzantine peer.
func (b *RoundBuffer[R]) Add(r R) error {
	round, node := r.origin()
	if node < 0 || node >= b.peers {
		return fmt.Errorf("%w: report from unknown node %d", ErrBadMessage, node)
	}
	byNode, ok := b.pending[round]
	if !ok {
		byNode = make(map[int]R, b.peers)
		b.pending[round] = byNode
	}
	if prev, dup := byNode[node]; dup {
		if prev.same(r) {
			return fmt.Errorf("%w: node %d round %d", ErrDuplicateReport, node, round)
		}
		return fmt.Errorf("%w: conflicting duplicate report from node %d for round %d", ErrBadMessage, node, round)
	}
	byNode[node] = r
	return nil
}

// Count returns the number of distinct reports buffered for the round.
func (b *RoundBuffer[R]) Count(round int) int {
	return len(b.pending[round])
}

// Peek returns a copy of the round's buffered reports in ascending node
// order, leaving them in the buffer.
func (b *RoundBuffer[R]) Peek(round int) []R {
	byNode := b.pending[round]
	if len(byNode) == 0 {
		return nil
	}
	out := make([]R, 0, len(byNode))
	for node := 0; node < b.peers; node++ {
		if r, ok := byNode[node]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Take removes and returns the round's reports keyed by node id.
func (b *RoundBuffer[R]) Take(round int) map[int]R {
	byNode := b.pending[round]
	delete(b.pending, round)
	return byNode
}
