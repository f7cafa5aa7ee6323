package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire codec. Every peer message is one length-prefixed frame:
//
//	[0] magic 0xFB     — a payload without it is ErrBadMessage
//	[1] version        — currently BinaryVersion; unknown versions are
//	                     ErrBadMessage, not a guess
//	[2] kind code      — one byte per Kind
//	[3..] body length  — uvarint
//	[..]  body         — fields in declaration order: signed ints as
//	                     zigzag varints, counts/ids-with-known-sign as
//	                     uvarints, float64 as its IEEE-754 bit pattern in
//	                     8 little-endian bytes, bools as one byte, slices
//	                     and strings as a uvarint count plus elements
//
// The declared body length must match the frame exactly: truncated or
// over-long frames are ErrBadMessage. Non-finite floats (NaN, ±Inf) are
// rejected on encode and on decode: no message kind has a meaning for
// them, and reports received off the wire are checkpointed as JSON,
// which cannot hold them. The codec has no per-field tags — both sides
// must agree on the version byte, which is the point of it. The one
// optional group, GossipExtrema's share, follows its HasShare bool only
// when that bool is set.
const (
	binMagic byte = 0xFB
	// BinaryVersion is the codec version this build writes and accepts.
	// Version 2 retired code 12, gave code 13 its optional share and
	// dropped an unused float from AggDown's code 11 body.
	BinaryVersion byte = 2
)

// Codec names a wire encoding. The binary frame above is the only one;
// the type remains so EncodeAggUp and EncodeAggDown keep their
// signatures, and any value but CodecBinary is ErrBadMessage.
type Codec int

// CodecBinary is the length-prefixed binary frame above.
const CodecBinary Codec = 1

// kind codes, one byte per Kind. Codes are part of the wire format:
// never renumber, only append. Code 12 (the version-1 push-sum share,
// now part of code 13) is retired and reserved: it decodes as an
// unknown kind.
const (
	codeReport        byte = 1
	codeUpdate        byte = 2
	codeVectorReport  byte = 3
	codeAccess        byte = 4
	codeAccessReply   byte = 5
	codePlan          byte = 6
	codePlanAck       byte = 7
	codePing          byte = 8
	codePong          byte = 9
	codeAggUp         byte = 10
	codeAggDown       byte = 11
	codeGossipExtrema byte = 13
)

var kindToCode = map[Kind]byte{
	KindReport:        codeReport,
	KindUpdate:        codeUpdate,
	KindVectorReport:  codeVectorReport,
	KindAccess:        codeAccess,
	KindAccessReply:   codeAccessReply,
	KindPlan:          codePlan,
	KindPlanAck:       codePlanAck,
	KindPing:          codePing,
	KindPong:          codePong,
	KindAggUp:         codeAggUp,
	KindAggDown:       codeAggDown,
	KindGossipExtrema: codeGossipExtrema,
}

// EncodeBinary serializes an Envelope as one binary frame. Exactly one
// payload field matching Kind must be non-nil, as with decoded envelopes.
func EncodeBinary(e Envelope) ([]byte, error) {
	code, ok := kindToCode[e.Kind]
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadMessage, e.Kind)
	}
	// The body is written after room for the longest header; the header
	// then goes right-aligned into that room, so a frame costs one
	// allocation.
	const maxHeader = 3 + binary.MaxVarintLen64
	w := binWriter{buf: make([]byte, maxHeader, 128)}
	switch e.Kind {
	case KindReport:
		if e.Report == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Report
		w.varint(int64(m.Round))
		w.varint(int64(m.Node))
		w.float(m.Marginal)
		w.float(m.Alloc)
		w.float(m.Curvature)
		w.uvarint(m.Planned)
	case KindUpdate:
		if e.Update == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Update
		w.varint(int64(m.Round))
		w.boolean(m.Done)
		w.floats(m.Delta)
	case KindVectorReport:
		if e.Vector == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Vector
		w.varint(int64(m.Round))
		w.varint(int64(m.Node))
		w.floats(m.Marginals)
		w.floats(m.Allocs)
	case KindAccess:
		if e.Access == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Access
		w.uvarint(m.ID)
		w.varint(int64(m.Origin))
		w.float(m.T)
		w.varint(int64(m.Epoch))
	case KindAccessReply:
		if e.AccessReply == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.AccessReply
		w.uvarint(m.ID)
		w.varint(int64(m.Node))
		w.varint(int64(m.Origin))
		w.varint(int64(m.Epoch))
		w.varint(m.LatencyMicros)
		w.boolean(m.Degraded)
		w.str(m.Err)
	case KindPlan:
		if e.Plan == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Plan
		w.uvarint(m.ID)
		w.varint(int64(m.Epoch))
		w.floats(m.X)
		w.bools(m.Alive)
		w.boolean(m.Degraded)
		w.float(m.Lambda)
		w.float(m.Q)
	case KindPlanAck:
		if e.PlanAck == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.PlanAck
		w.uvarint(m.ID)
		w.varint(int64(m.Epoch))
		w.varint(int64(m.Node))
	case KindPing:
		if e.Ping == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Ping
		w.uvarint(m.ID)
		w.float(m.T)
	case KindPong:
		if e.Pong == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.Pong
		w.uvarint(m.ID)
		w.varint(int64(m.Node))
		w.varint(int64(m.Epoch))
		w.floats(m.Rates)
	case KindAggUp:
		if e.AggUp == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.AggUp
		w.varint(int64(m.Round))
		w.varint(int64(m.Pass))
		w.varint(int64(m.Epoch))
		w.varint(int64(m.Node))
		w.aggregate(m.Agg)
	case KindAggDown:
		if e.AggDown == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.AggDown
		w.varint(int64(m.Round))
		w.varint(int64(m.Pass))
		w.varint(int64(m.Epoch))
		w.float(m.Avg)
		w.varint(int64(m.Count))
		w.boolean(m.Drop)
		w.varint(int64(m.Readmit))
		w.boolean(m.Final)
		w.float(m.Truncation)
		w.float(m.Spread)
		w.boolean(m.Converged)
		w.boolean(m.NoOp)
	case KindGossipExtrema:
		if e.GossipExtrema == nil {
			return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
		}
		m := e.GossipExtrema
		w.varint(int64(m.Round))
		w.varint(int64(m.Tick))
		w.varint(int64(m.Epoch))
		w.varint(int64(m.Node))
		w.boolean(m.HasInt)
		w.float(m.IntMinG)
		w.float(m.IntMaxG)
		w.boolean(m.BoundOK)
		w.boolean(m.HasOut)
		w.float(m.OutG)
		w.varint(int64(m.OutNode))
		w.boolean(m.HasShare)
		if m.HasShare {
			w.float(m.SG)
			w.float(m.SGC)
			w.float(m.WA)
			w.float(m.SX)
			w.float(m.SXC)
			w.float(m.WN)
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadMessage, e.Kind)
	}
	if w.err != nil {
		return nil, fmt.Errorf("protocol: encoding %s: %w", e.Kind, w.err)
	}
	var size [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(size[:], uint64(len(w.buf)-maxHeader))
	frame := w.buf[maxHeader-3-n:]
	frame[0], frame[1], frame[2] = binMagic, BinaryVersion, code
	copy(frame[3:], size[:n])
	return frame, nil
}

// Decode parses one wire payload, a frame written by EncodeBinary. A
// payload that is not exactly one well-formed frame of a known version
// and kind, or that carries a non-finite float, is ErrBadMessage.
func Decode(payload []byte) (Envelope, error) {
	if len(payload) < 3 {
		return Envelope{}, fmt.Errorf("%w: frame truncated at %d bytes", ErrBadMessage, len(payload))
	}
	if payload[0] != binMagic {
		return Envelope{}, fmt.Errorf("%w: frame starts with %#x, not the magic %#x", ErrBadMessage, payload[0], binMagic)
	}
	if payload[1] != BinaryVersion {
		return Envelope{}, fmt.Errorf("%w: binary frame version %d, want %d", ErrBadMessage, payload[1], BinaryVersion)
	}
	code := payload[2]
	size, n := binary.Uvarint(payload[3:])
	if n <= 0 {
		return Envelope{}, fmt.Errorf("%w: binary frame has no length prefix", ErrBadMessage)
	}
	body := payload[3+n:]
	if uint64(len(body)) != size {
		return Envelope{}, fmt.Errorf("%w: binary frame declares %d body bytes, carries %d", ErrBadMessage, size, len(body))
	}
	r := &binReader{buf: body}
	env, err := decodeBinaryBody(code, r)
	if err != nil {
		return Envelope{}, err
	}
	if r.off != len(r.buf) {
		return Envelope{}, fmt.Errorf("%w: binary frame has %d trailing bytes", ErrBadMessage, len(r.buf)-r.off)
	}
	return env, nil
}

func decodeBinaryBody(code byte, r *binReader) (Envelope, error) {
	switch code {
	case codeReport:
		var m Report
		m.Round = r.intField()
		m.Node = r.intField()
		m.Marginal = r.float()
		m.Alloc = r.float()
		m.Curvature = r.float()
		m.Planned = r.uvarint()
		return Envelope{Kind: KindReport, Report: &m}, r.err
	case codeUpdate:
		var m Update
		m.Round = r.intField()
		m.Done = r.boolean()
		m.Delta = r.floats()
		return Envelope{Kind: KindUpdate, Update: &m}, r.err
	case codeVectorReport:
		var m VectorReport
		m.Round = r.intField()
		m.Node = r.intField()
		m.Marginals = r.floats()
		m.Allocs = r.floats()
		return Envelope{Kind: KindVectorReport, Vector: &m}, r.err
	case codeAccess:
		var m Access
		m.ID = r.uvarint()
		m.Origin = r.intField()
		m.T = r.float()
		m.Epoch = r.intField()
		return Envelope{Kind: KindAccess, Access: &m}, r.err
	case codeAccessReply:
		var m AccessReply
		m.ID = r.uvarint()
		m.Node = r.intField()
		m.Origin = r.intField()
		m.Epoch = r.intField()
		m.LatencyMicros = r.varint()
		m.Degraded = r.boolean()
		m.Err = r.str()
		return Envelope{Kind: KindAccessReply, AccessReply: &m}, r.err
	case codePlan:
		var m Plan
		m.ID = r.uvarint()
		m.Epoch = r.intField()
		m.X = r.floats()
		m.Alive = r.bools()
		m.Degraded = r.boolean()
		m.Lambda = r.float()
		m.Q = r.float()
		return Envelope{Kind: KindPlan, Plan: &m}, r.err
	case codePlanAck:
		var m PlanAck
		m.ID = r.uvarint()
		m.Epoch = r.intField()
		m.Node = r.intField()
		return Envelope{Kind: KindPlanAck, PlanAck: &m}, r.err
	case codePing:
		var m Ping
		m.ID = r.uvarint()
		m.T = r.float()
		return Envelope{Kind: KindPing, Ping: &m}, r.err
	case codePong:
		var m Pong
		m.ID = r.uvarint()
		m.Node = r.intField()
		m.Epoch = r.intField()
		m.Rates = r.floats()
		return Envelope{Kind: KindPong, Pong: &m}, r.err
	case codeAggUp:
		var m AggUp
		m.Round = r.intField()
		m.Pass = r.intField()
		m.Epoch = r.intField()
		m.Node = r.intField()
		m.Agg = r.aggregate()
		return Envelope{Kind: KindAggUp, AggUp: &m}, r.err
	case codeAggDown:
		var m AggDown
		m.Round = r.intField()
		m.Pass = r.intField()
		m.Epoch = r.intField()
		m.Avg = r.float()
		m.Count = r.intField()
		m.Drop = r.boolean()
		m.Readmit = r.intField()
		m.Final = r.boolean()
		m.Truncation = r.float()
		m.Spread = r.float()
		m.Converged = r.boolean()
		m.NoOp = r.boolean()
		return Envelope{Kind: KindAggDown, AggDown: &m}, r.err
	case codeGossipExtrema:
		var m GossipExtrema
		m.Round = r.intField()
		m.Tick = r.intField()
		m.Epoch = r.intField()
		m.Node = r.intField()
		m.HasInt = r.boolean()
		m.IntMinG = r.float()
		m.IntMaxG = r.float()
		m.BoundOK = r.boolean()
		m.HasOut = r.boolean()
		m.OutG = r.float()
		m.OutNode = r.intField()
		m.HasShare = r.boolean()
		if m.HasShare {
			m.SG = r.float()
			m.SGC = r.float()
			m.WA = r.float()
			m.SX = r.float()
			m.SXC = r.float()
			m.WN = r.float()
		}
		return Envelope{Kind: KindGossipExtrema, GossipExtrema: &m}, r.err
	default:
		return Envelope{}, fmt.Errorf("%w: unknown binary kind code %d", ErrBadMessage, code)
	}
}

// binWriter accumulates a frame body, latching the first error.
type binWriter struct {
	buf []byte
	err error
}

func (w *binWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *binWriter) float(v float64) {
	if w.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		w.err = fmt.Errorf("%w: non-finite float %v", ErrBadMessage, v)
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *binWriter) boolean(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) floats(vs []float64) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.float(v)
	}
}

func (w *binWriter) bools(vs []bool) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.boolean(v)
	}
}

func (w *binWriter) aggregate(a Aggregate) {
	w.float(a.SumG)
	w.float(a.SumGC)
	w.float(a.SumH)
	w.float(a.SumHC)
	w.float(a.SumX)
	w.float(a.SumXC)
	w.varint(int64(a.Count))
	w.float(a.MinG)
	w.float(a.MaxG)
	w.varint(int64(a.BoundCount))
	w.float(a.BoundMinG)
	w.varint(int64(a.OutNode))
	w.float(a.OutG)
	w.varint(int64(a.Changed))
	w.varint(int64(a.RatioCount))
	w.float(a.MinRatio)
}

// binReader consumes a frame body, latching the first error: every read
// after a failure returns a zero value, so decode call sites stay linear
// and the final r.err check is the single truncation test.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at byte %d", ErrBadMessage, what, r.off)
	}
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// intField reads a varint and narrows it to int, rejecting values that
// do not fit (a hostile frame must not silently wrap indices).
func (r *binReader) intField() int {
	v := r.varint()
	if r.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		r.err = fmt.Errorf("%w: integer field %d out of range", ErrBadMessage, v)
		return 0
	}
	return int(v)
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.err = fmt.Errorf("%w: non-finite float %v at byte %d", ErrBadMessage, v, r.off)
		return 0
	}
	r.off += 8
	return v
}

func (r *binReader) boolean() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.err = fmt.Errorf("%w: bool byte %d", ErrBadMessage, b)
		return false
	}
	return b == 1
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) floats() []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each element takes 8 bytes; a count beyond the remaining body is a
	// lie, rejected before any allocation sized by attacker input.
	if n > uint64(len(r.buf)-r.off)/8 {
		r.fail("float64 slice")
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.float()
	}
	return vs
}

func (r *binReader) bools() []bool {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("bool slice")
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = r.boolean()
	}
	return vs
}

func (r *binReader) aggregate() Aggregate {
	var a Aggregate
	a.SumG = r.float()
	a.SumGC = r.float()
	a.SumH = r.float()
	a.SumHC = r.float()
	a.SumX = r.float()
	a.SumXC = r.float()
	a.Count = r.intField()
	a.MinG = r.float()
	a.MaxG = r.float()
	a.BoundCount = r.intField()
	a.BoundMinG = r.float()
	a.OutNode = r.intField()
	a.OutG = r.float()
	a.Changed = r.intField()
	a.RatioCount = r.intField()
	a.MinRatio = r.float()
	return a
}
