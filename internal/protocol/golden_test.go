package protocol

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// wireGolden holds one fixed message per kind, plus the layouts a single
// message cannot show: GossipExtrema without its optional share and an
// Update with an empty Delta. Each frame's hex is the BinaryVersion 2
// encoding; changing any of them is a wire-format change.
var wireGolden = []struct {
	name string
	env  Envelope
	hex  string
}{
	{"report", Envelope{Kind: KindReport, Report: &Report{Round: 70, Node: -3, Marginal: -2.9387528349794507, Alloc: 0.0625, Curvature: -0.5, Planned: 0xFFFF}},
		"fb02011e8c0105b91caad8908207c0000000000000b03f000000000000e0bfffff03"},
	{"update", Envelope{Kind: KindUpdate, Update: &Update{Round: 9, Delta: []float64{0.1, -0.25, 0}, Done: true}},
		"fb02021b1201039a9999999999b93f000000000000d0bf0000000000000000"},
	// An empty Delta travels as count 0 and decodes as nil.
	{"update-empty", Envelope{Kind: KindUpdate, Update: &Update{Round: 300}},
		"fb020204d8040000"},
	{"vector-report", Envelope{Kind: KindVectorReport, Vector: &VectorReport{Round: 3, Node: 1, Marginals: []float64{-1, -2.5}, Allocs: []float64{0.75, 0.25}}},
		"fb020324060202000000000000f0bf00000000000004c002000000000000e83f000000000000d03f"},
	{"access", Envelope{Kind: KindAccess, Access: &Access{ID: 1 << 40, Origin: 5, T: 17.5, Epoch: 2}},
		"fb0204108080808080200a000000000080314004"},
	{"access-reply", Envelope{Kind: KindAccessReply, AccessReply: &AccessReply{ID: 42, Node: 1, Origin: 5, Epoch: 2, LatencyMicros: -1 << 40, Degraded: true, Err: "saturated μ≤λx"}},
		"fb02051e2a020a04ffffffffff3f011273617475726174656420cebce289a4cebb78"},
	{"plan", Envelope{Kind: KindPlan, Plan: &Plan{ID: 7, Epoch: 3, X: []float64{0.25, 0, 0.75}, Alive: []bool{true, false, true}, Degraded: true, Lambda: 12.5, Q: -4.5}},
		"fb020630070603000000000000d03f0000000000000000000000000000e83f0301000101000000000000294000000000000012c0"},
	{"plan-ack", Envelope{Kind: KindPlanAck, PlanAck: &PlanAck{ID: 7, Epoch: 3, Node: 2}},
		"fb020703070604"},
	{"ping", Envelope{Kind: KindPing, Ping: &Ping{ID: 9, T: 0.25}},
		"fb02080909000000000000d03f"},
	{"pong", Envelope{Kind: KindPong, Pong: &Pong{ID: 9, Node: 2, Epoch: 1, Rates: []float64{0.5, 0.25, 0.25}}},
		"fb02091c09040203000000000000e03f000000000000d03f000000000000d03f"},
	{"agg-up", Envelope{Kind: KindAggUp, AggUp: &AggUp{Round: 88, Pass: 2, Epoch: 1, Node: 63, Agg: Aggregate{
		SumG: -10.5, SumGC: 1e-17, SumH: -2, SumHC: -3e-18, SumX: 1, SumXC: 2e-16,
		Count: 4, MinG: -4, MaxG: -1, BoundCount: 1, BoundMinG: -4,
		OutNode: -1, OutG: -2.5, Changed: 1, RatioCount: 2, MinRatio: 0.75,
	}}},
		"fb020a62b00104027e00000000000025c097d44646f50e673c00000000000000c08165bbba8cab4bbc000000000000f03fbc89d897b2d2ac3c0800000000000010c0000000000000f0bf0200000000000010c00100000000000004c00204000000000000e83f"},
	{"agg-down", Envelope{Kind: KindAggDown, AggDown: &AggDown{Round: 88, Pass: 2, Epoch: 1, Avg: -2.625, Count: 64, Drop: true, Readmit: -1, Final: true, Truncation: 0.5, Spread: 3e-5, Converged: false, NoOp: true}},
		"fb020b23b001040200000000000005c08001010101000000000000e03f691d554d1075ff3e0001"},
	{"gossip-extrema", Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{Round: 1, Tick: 3, Epoch: 0, Node: 6, HasInt: true, IntMinG: -7, IntMaxG: -1, BoundOK: true, HasOut: true, OutG: -3, OutNode: 2,
		HasShare: true, SG: -5.25, SGC: -1e-18, WA: 0.5, SX: 0.125, SXC: 1e-19, WN: 0.25}},
		"fb020d510206000c010000000000001cc0000000000000f0bf010100000000000008c0040100000000000015c0ac43d2d15d7232bc000000000000e03f000000000000c03facd2b64fc983fd3b000000000000d03f"},
	// Without HasShare the six share floats are absent from the frame.
	{"gossip-extrema-noshare", Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{Round: 1, Tick: 4, Epoch: 0, Node: 6, HasInt: true, IntMinG: -7, IntMaxG: -1, OutNode: -1}},
		"fb020d210208000c010000000000001cc0000000000000f0bf000000000000000000000100"},
}

// TestWireGolden pins every kind's frame bytes: encoding each message
// gives the recorded hex, decoding the recorded bytes gives the message
// back, and re-encoding the decoded envelope gives the same bytes.
func TestWireGolden(t *testing.T) {
	for _, tc := range wireGolden {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := EncodeBinary(tc.env)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(frame); got != tc.hex {
				t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, tc.hex)
			}
			golden, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			env, err := Decode(golden)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(env, tc.env) {
				t.Fatalf("decoded envelope differs:\n got %+v\nwant %+v", env, tc.env)
			}
			again, err := EncodeBinary(env)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again, golden) {
				t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, golden)
			}
		})
	}
}
