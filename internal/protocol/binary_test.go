package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// binarySeedEnvelopes covers every message kind with representative
// values: negative ints, zero-length and multi-element slices, strings,
// and extreme finite floats. Non-finite floats are rejected; see
// nonFiniteCases.
func binarySeedEnvelopes() []Envelope {
	return []Envelope{
		{Kind: KindReport, Report: &Report{Round: 7, Node: 3, Marginal: -12.25, Alloc: 0.125, Curvature: -0.5, Planned: 0xDEADBEEF}},
		{Kind: KindReport, Report: &Report{Round: 0, Node: 0, Marginal: -math.MaxFloat64, Alloc: 5e-324, Curvature: math.Copysign(0, -1), Planned: 1 << 63}},
		{Kind: KindUpdate, Update: &Update{Round: 9, Delta: []float64{0.1, -0.1, 0}, Done: true}},
		{Kind: KindUpdate, Update: &Update{Round: -1, Delta: nil}},
		{Kind: KindVectorReport, Vector: &VectorReport{Round: 3, Node: 1, Marginals: []float64{-1, -2}, Allocs: []float64{0.5, 0.5}}},
		{Kind: KindAccess, Access: &Access{ID: 42, Origin: 5, T: 17.5, Epoch: 2}},
		{Kind: KindAccessReply, AccessReply: &AccessReply{ID: 42, Node: 1, Origin: 5, Epoch: 2, LatencyMicros: -3, Degraded: true, Err: "saturated μ≤λx"}},
		{Kind: KindPlan, Plan: &Plan{ID: 1, Epoch: 3, X: []float64{0.25, 0.75}, Alive: []bool{true, false}, Degraded: true, Lambda: 1, Q: -4.5}},
		{Kind: KindPlanAck, PlanAck: &PlanAck{ID: 1, Epoch: 3, Node: 0}},
		{Kind: KindPing, Ping: &Ping{ID: 9, T: 0.25}},
		{Kind: KindPong, Pong: &Pong{ID: 9, Node: 2, Epoch: 1, Rates: []float64{0.5, 0.25, 0.25}}},
		{Kind: KindAggUp, AggUp: &AggUp{Round: 5, Pass: 1, Epoch: 2, Node: 7, Agg: Aggregate{
			SumG: -10.5, SumGC: 1e-17, SumH: -2, SumHC: -3e-18, SumX: 1, SumXC: 2e-16,
			Count: 4, MinG: -4, MaxG: -1, BoundCount: 1, BoundMinG: -4,
			OutNode: 3, OutG: -2.5, Changed: 1, RatioCount: 2, MinRatio: 0.75,
		}}},
		{Kind: KindAggUp, AggUp: &AggUp{Node: 0, Agg: Aggregate{OutNode: -1}}},
		{Kind: KindAggDown, AggDown: &AggDown{Round: 5, Pass: 2, Epoch: 2, Avg: -2.625, Count: 4, Drop: true, Readmit: -1, Final: true, Truncation: 0.5, Spread: 3, Converged: true, NoOp: false}},
		{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{Round: 1, Tick: 3, Epoch: 0, Node: 6, HasInt: true, IntMinG: -7, IntMaxG: -1, BoundOK: true, HasOut: true, OutG: -3, OutNode: 2}},
		{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{Round: 1, Tick: 3, Epoch: 0, Node: 6, BoundOK: true, OutNode: -1,
			HasShare: true, SG: -5.25, SGC: -1e-18, WA: 0.5, SX: 0.125, SXC: 0, WN: 0.25}},
		{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{BoundOK: false, OutNode: -1}},
	}
}

// envelopesBitEqual compares decoded envelopes through their canonical
// binary encoding, so -0 and +0 payloads compare unequal.
func envelopesBitEqual(t *testing.T, a, b Envelope) bool {
	t.Helper()
	ea, err := EncodeBinary(a)
	if err != nil {
		t.Fatalf("encoding %s: %v", a.Kind, err)
	}
	eb, err := EncodeBinary(b)
	if err != nil {
		t.Fatalf("encoding %s: %v", b.Kind, err)
	}
	return bytes.Equal(ea, eb)
}

// TestBinaryRoundTrip pins decode(encode(m)) == m bit for bit for every
// kind.
func TestBinaryRoundTrip(t *testing.T) {
	for _, env := range binarySeedEnvelopes() {
		frame, err := EncodeBinary(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		if frame[0] != binMagic {
			t.Fatalf("%s: encoded frame does not start with the binary magic", env.Kind)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if got.Kind != env.Kind {
			t.Fatalf("round trip changed kind: %s -> %s", env.Kind, got.Kind)
		}
		if !envelopesBitEqual(t, env, got) {
			t.Errorf("%s: round trip changed payload:\n  in:  %+v\n  out: %+v", env.Kind, env, got)
		}
	}
}

// TestBinaryTruncationIsErrBadMessage pins the framing contract: every
// strict prefix of every valid frame is rejected as ErrBadMessage, and
// so is a frame with trailing bytes.
func TestBinaryTruncationIsErrBadMessage(t *testing.T) {
	for _, env := range binarySeedEnvelopes() {
		frame, err := EncodeBinary(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		for cut := 1; cut < len(frame); cut++ {
			if _, err := Decode(frame[:cut]); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s: truncated frame (%d of %d bytes) gave err=%v, want ErrBadMessage", env.Kind, cut, len(frame), err)
			}
		}
		padded := append(append([]byte(nil), frame...), 0)
		if _, err := Decode(padded); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: frame with a trailing byte gave err=%v, want ErrBadMessage", env.Kind, err)
		}
	}
}

// TestBinaryRejectsBadFrames covers the explicit rejection paths:
// unknown version, unknown kind code (the retired code 12 included),
// lying length prefix, out-of-range integer fields, and malformed bool
// bytes.
func TestBinaryRejectsBadFrames(t *testing.T) {
	cases := map[string][]byte{
		"wrong version":     {binMagic, BinaryVersion + 1, codeReport, 0},
		"unknown kind code": {binMagic, BinaryVersion, 200, 0},
		// Code 12 carried the version-1 push-sum share; it is retired.
		"retired code 12":   {binMagic, BinaryVersion, 12, 0},
		"length over-claim": {binMagic, BinaryVersion, codePing, 10, 1},
		"length under-claim": append(
			[]byte{binMagic, BinaryVersion, codePing, 1},
			make([]byte, 9)...), // ping needs uvarint+8 bytes, claims 1
		"huge slice count": {binMagic, BinaryVersion, codeUpdate, 4, 2, 0, 0xFF, 0x7F},
		"bad bool byte":    {binMagic, BinaryVersion, codeUpdate, 3, 2, 7, 0},
	}
	for name, frame := range cases {
		if _, err := Decode(frame); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err=%v, want ErrBadMessage", name, err)
		}
	}
	// An integer field carrying a value outside int32 must be rejected,
	// not silently wrapped into a plausible node id.
	// The encoder refuses such a value, so the report body is built by
	// hand: round, node 0, three zero floats, planned 0.
	body := binary.AppendVarint(nil, int64(math.MaxInt32)+1)
	body = append(body, 0)
	body = append(body, make([]byte, 3*8)...)
	body = append(body, 0)
	frame := []byte{binMagic, BinaryVersion, codeReport, byte(len(body))}
	frame = append(frame, body...)
	if _, err := Decode(frame); !errors.Is(err, ErrBadMessage) {
		t.Errorf("out-of-range int field: err=%v, want ErrBadMessage", err)
	}
	// A well-formed frame stamped with version 1, whose code 11 and 13
	// bodies differ from today's, is rejected rather than misread.
	v1, err := EncodeReport(Report{Round: 1, Node: 2, Marginal: -3.5})
	if err != nil {
		t.Fatal(err)
	}
	v1[1] = 1
	if _, err := Decode(v1); !errors.Is(err, ErrBadMessage) {
		t.Errorf("version-1 frame: err=%v, want ErrBadMessage", err)
	}
}

// nonFiniteSentinel is a finite value that appears in no frame built by
// nonFiniteCases except where a case puts it.
const nonFiniteSentinel = 1234.5678

// nonFiniteCases builds, for every kind with float fields, envelopes
// whose one marked float field holds v.
func nonFiniteCases() map[string]func(v float64) Envelope {
	return map[string]func(v float64) Envelope{
		"report marginal":  func(v float64) Envelope { return Envelope{Kind: KindReport, Report: &Report{Marginal: v}} },
		"report alloc":     func(v float64) Envelope { return Envelope{Kind: KindReport, Report: &Report{Alloc: v}} },
		"report curvature": func(v float64) Envelope { return Envelope{Kind: KindReport, Report: &Report{Curvature: v}} },
		"update delta":     func(v float64) Envelope { return Envelope{Kind: KindUpdate, Update: &Update{Delta: []float64{0, v}}} },
		"vector marginals": func(v float64) Envelope {
			return Envelope{Kind: KindVectorReport, Vector: &VectorReport{Marginals: []float64{v}, Allocs: []float64{1}}}
		},
		"vector allocs": func(v float64) Envelope {
			return Envelope{Kind: KindVectorReport, Vector: &VectorReport{Marginals: []float64{1}, Allocs: []float64{v}}}
		},
		"access t":    func(v float64) Envelope { return Envelope{Kind: KindAccess, Access: &Access{T: v}} },
		"plan x":      func(v float64) Envelope { return Envelope{Kind: KindPlan, Plan: &Plan{X: []float64{v}}} },
		"plan lambda": func(v float64) Envelope { return Envelope{Kind: KindPlan, Plan: &Plan{Lambda: v}} },
		"plan q":      func(v float64) Envelope { return Envelope{Kind: KindPlan, Plan: &Plan{Q: v}} },
		"ping t":      func(v float64) Envelope { return Envelope{Kind: KindPing, Ping: &Ping{T: v}} },
		"pong rates":  func(v float64) Envelope { return Envelope{Kind: KindPong, Pong: &Pong{Rates: []float64{v}}} },
		"agg-up sum":  func(v float64) Envelope { return Envelope{Kind: KindAggUp, AggUp: &AggUp{Agg: Aggregate{SumG: v}}} },
		"agg-up ratio": func(v float64) Envelope {
			return Envelope{Kind: KindAggUp, AggUp: &AggUp{Agg: Aggregate{MinRatio: v}}}
		},
		"agg-down avg": func(v float64) Envelope { return Envelope{Kind: KindAggDown, AggDown: &AggDown{Avg: v}} },
		"extrema int": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasInt: true, IntMinG: v}}
		},
		"extrema out": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasOut: true, OutG: v}}
		},
		"extrema share sg": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, SG: v}}
		},
		"extrema share sgc": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, SGC: v}}
		},
		"extrema share wa": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, WA: v}}
		},
		"extrema share sx": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, SX: v}}
		},
		"extrema share sxc": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, SXC: v}}
		},
		"extrema share wn": func(v float64) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{HasShare: true, WN: v}}
		},
	}
}

// withFloat returns frame with the bytes of nonFiniteSentinel replaced
// by the bit pattern of v.
func withFloat(frame []byte, v float64) []byte {
	return bytes.Replace(frame, floatBytes(nonFiniteSentinel), floatBytes(v), 1)
}

func floatBytes(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

// TestBinaryRejectsNonFiniteFloats pins that NaN and ±Inf never cross
// the wire in either direction: encoding one is ErrBadMessage, and so
// is decoding a hand-built frame that carries one.
func TestBinaryRejectsNonFiniteFloats(t *testing.T) {
	sentinel := floatBytes(nonFiniteSentinel)
	for name, build := range nonFiniteCases() {
		good, err := EncodeBinary(build(nonFiniteSentinel))
		if err != nil {
			t.Fatalf("%s: encoding the finite sentinel: %v", name, err)
		}
		if bytes.Count(good, sentinel) != 1 {
			t.Fatalf("%s: sentinel appears %d times in the frame", name, bytes.Count(good, sentinel))
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := EncodeBinary(build(bad)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s: encoding %v: err=%v, want ErrBadMessage", name, bad, err)
			}
			if _, err := Decode(withFloat(good, bad)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s: decoding %v: err=%v, want ErrBadMessage", name, bad, err)
			}
		}
	}
}

// TestGossipKindEncoders pins the per-kind gossip encoders and RoundOf
// coverage of the aggregation kinds.
func TestGossipKindEncoders(t *testing.T) {
	up, err := EncodeAggUp(CodecBinary, AggUp{Round: 11, Pass: 1, Node: 2, Agg: Aggregate{Count: 3, OutNode: -1}})
	if err != nil {
		t.Fatalf("EncodeAggUp: %v", err)
	}
	down, err := EncodeAggDown(CodecBinary, AggDown{Round: 11, Pass: 1, Avg: -2, Count: 3, Readmit: -1})
	if err != nil {
		t.Fatalf("EncodeAggDown: %v", err)
	}
	ext, err := EncodeGossipExtrema(GossipExtrema{Round: 11, Tick: 2, Node: 1, OutNode: -1})
	if err != nil {
		t.Fatalf("EncodeGossipExtrema: %v", err)
	}
	share, err := EncodeGossipExtrema(GossipExtrema{Round: 11, Tick: 2, Node: 1, OutNode: -1, HasShare: true, SG: -1, WA: 1, SX: 0.5, WN: 1})
	if err != nil {
		t.Fatalf("EncodeGossipExtrema with a share: %v", err)
	}
	for name, payload := range map[string][]byte{"agg-up": up, "agg-down": down, "extrema": ext, "extrema+share": share} {
		round, ok := RoundOf(payload)
		if !ok || round != 11 {
			t.Errorf("%s: RoundOf = (%d, %v), want (11, true)", name, round, ok)
		}
	}
	for _, c := range []Codec{0, 2, 99} {
		if _, err := EncodeAggUp(c, AggUp{}); !errors.Is(err, ErrBadMessage) {
			t.Errorf("EncodeAggUp with codec %d: err=%v, want ErrBadMessage", c, err)
		}
		if _, err := EncodeAggDown(c, AggDown{}); !errors.Is(err, ErrBadMessage) {
			t.Errorf("EncodeAggDown with codec %d: err=%v, want ErrBadMessage", c, err)
		}
	}
}

// TestBinaryRejectsOutOfRangeInts pins the int32 range of int fields on
// the encode side too: a frame the decoder would reject is never
// written. AccessReply.LatencyMicros is an int64 on both sides and is
// not narrowed.
func TestBinaryRejectsOutOfRangeInts(t *testing.T) {
	cases := map[string]func(v int) Envelope{
		"report round":     func(v int) Envelope { return Envelope{Kind: KindReport, Report: &Report{Round: v}} },
		"report node":      func(v int) Envelope { return Envelope{Kind: KindReport, Report: &Report{Node: v}} },
		"update round":     func(v int) Envelope { return Envelope{Kind: KindUpdate, Update: &Update{Round: v}} },
		"vector node":      func(v int) Envelope { return Envelope{Kind: KindVectorReport, Vector: &VectorReport{Node: v}} },
		"access origin":    func(v int) Envelope { return Envelope{Kind: KindAccess, Access: &Access{Origin: v}} },
		"access epoch":     func(v int) Envelope { return Envelope{Kind: KindAccess, Access: &Access{Epoch: v}} },
		"reply node":       func(v int) Envelope { return Envelope{Kind: KindAccessReply, AccessReply: &AccessReply{Node: v}} },
		"plan epoch":       func(v int) Envelope { return Envelope{Kind: KindPlan, Plan: &Plan{Epoch: v}} },
		"plan-ack node":    func(v int) Envelope { return Envelope{Kind: KindPlanAck, PlanAck: &PlanAck{Node: v}} },
		"pong epoch":       func(v int) Envelope { return Envelope{Kind: KindPong, Pong: &Pong{Epoch: v}} },
		"agg-up pass":      func(v int) Envelope { return Envelope{Kind: KindAggUp, AggUp: &AggUp{Pass: v}} },
		"agg-up count":     func(v int) Envelope { return Envelope{Kind: KindAggUp, AggUp: &AggUp{Agg: Aggregate{Count: v}}} },
		"agg-up ratio n":   func(v int) Envelope { return Envelope{Kind: KindAggUp, AggUp: &AggUp{Agg: Aggregate{RatioCount: v}}} },
		"agg-down readmit": func(v int) Envelope { return Envelope{Kind: KindAggDown, AggDown: &AggDown{Readmit: v}} },
		"extrema out node": func(v int) Envelope {
			return Envelope{Kind: KindGossipExtrema, GossipExtrema: &GossipExtrema{OutNode: v}}
		},
	}
	for name, build := range cases {
		for _, v := range []int{math.MaxInt32, math.MinInt32} {
			if _, err := EncodeBinary(build(v)); err != nil {
				t.Errorf("%s = %d: %v", name, v, err)
			}
		}
		for _, v := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
			if frame, err := EncodeBinary(build(v)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s = %d: encoded %x, err=%v, want ErrBadMessage", name, v, frame, err)
			}
		}
	}
	reply := AccessReply{LatencyMicros: math.MaxInt32 + 1}
	frame, err := EncodeAccessReply(reply)
	if err != nil {
		t.Fatalf("int64 latency: %v", err)
	}
	if env, err := Decode(frame); err != nil || env.AccessReply.LatencyMicros != reply.LatencyMicros {
		t.Fatalf("int64 latency round trip: %+v, %v", env.AccessReply, err)
	}
}

// TestCodecAllocs pins the codec's allocations: encoding a report costs
// the frame, decoding it the message, and the coder itself none.
func TestCodecAllocs(t *testing.T) {
	rep := &Report{Round: 70, Node: 3, Marginal: -2.5, Alloc: 0.0625}
	allocs := testing.AllocsPerRun(100, func() {
		frame, err := EncodeBinary(Envelope{Kind: KindReport, Report: rep})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("report encode+decode: %v allocs, want 2", allocs)
	}
}
