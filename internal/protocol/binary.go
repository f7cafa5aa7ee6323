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
//	[..]  body         — fields in wire order: signed ints as zigzag
//	                     varints, counts/ids-with-known-sign as uvarints,
//	                     float64 as its IEEE-754 bit pattern in 8
//	                     little-endian bytes, bools as one byte, slices
//	                     and strings as a uvarint count plus elements
//
// Each kind's body is described once, by its code method, which lists
// the fields in wire order; one coder runs that description to encode
// (append) or to decode (parse), so the two directions cannot disagree.
// Both sides enforce the same value ranges: int fields stay within
// int32, and non-finite floats (NaN, ±Inf) are ErrBadMessage — no
// message kind has a meaning for them, and reports received off the
// wire are checkpointed as JSON, which cannot hold them. The declared
// body length must match the frame exactly: truncated or over-long
// frames are ErrBadMessage. The codec has no per-field tags — both sides
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

// codeKind inverts kindToCode; unused and retired codes map to "".
var codeKind = func() (t [256]Kind) {
	for k, c := range kindToCode {
		t[c] = k
	}
	return t
}()

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
	c := coder{buf: make([]byte, maxHeader, 128)}
	if !e.code(&c) {
		return nil, fmt.Errorf("%w: %s envelope without body", ErrBadMessage, e.Kind)
	}
	if c.err != nil {
		return nil, fmt.Errorf("protocol: encoding %s: %w", e.Kind, c.err)
	}
	var size [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(size[:], uint64(len(c.buf)-maxHeader))
	frame := c.buf[maxHeader-3-n:]
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
	env := Envelope{Kind: codeKind[code]}
	c := coder{dec: true, buf: body}
	if !env.code(&c) {
		return Envelope{}, fmt.Errorf("%w: unknown binary kind code %d", ErrBadMessage, code)
	}
	if c.err != nil {
		return Envelope{}, c.err
	}
	if c.off != len(c.buf) {
		return Envelope{}, fmt.Errorf("%w: binary frame has %d trailing bytes", ErrBadMessage, len(c.buf)-c.off)
	}
	return env, nil
}

// code runs c over the payload e.Kind names. Decoding first gives e a
// fresh payload of that kind; encoding reports false when the payload is
// nil. Either way an unknown kind reports false.
func (e *Envelope) code(c *coder) bool {
	switch e.Kind {
	case KindReport:
		return codeBody(c, &e.Report, (*Report).code)
	case KindUpdate:
		return codeBody(c, &e.Update, (*Update).code)
	case KindVectorReport:
		return codeBody(c, &e.Vector, (*VectorReport).code)
	case KindAccess:
		return codeBody(c, &e.Access, (*Access).code)
	case KindAccessReply:
		return codeBody(c, &e.AccessReply, (*AccessReply).code)
	case KindPlan:
		return codeBody(c, &e.Plan, (*Plan).code)
	case KindPlanAck:
		return codeBody(c, &e.PlanAck, (*PlanAck).code)
	case KindPing:
		return codeBody(c, &e.Ping, (*Ping).code)
	case KindPong:
		return codeBody(c, &e.Pong, (*Pong).code)
	case KindAggUp:
		return codeBody(c, &e.AggUp, (*AggUp).code)
	case KindAggDown:
		return codeBody(c, &e.AggDown, (*AggDown).code)
	case KindGossipExtrema:
		return codeBody(c, &e.GossipExtrema, (*GossipExtrema).code)
	}
	return false
}

// codeBody runs code over *body, first giving a decode a fresh payload;
// it reports false for an encode of a nil payload. code is a method
// expression, not a method called through a type parameter: once
// codeBody is inlined the call is direct, so c stays on the caller's
// stack and a frame costs no allocation for the coder (TestCodecAllocs).
func codeBody[T any](c *coder, body **T, code func(*T, *coder)) bool {
	if c.dec {
		*body = new(T)
	}
	if *body == nil {
		return false
	}
	code(*body, c)
	return true
}

// The body of each kind, field by field in wire order.

func (m *Report) code(c *coder) {
	c.integer(&m.Round)
	c.integer(&m.Node)
	c.float(&m.Marginal)
	c.float(&m.Alloc)
	c.float(&m.Curvature)
	c.uvarint(&m.Planned)
}

func (m *Update) code(c *coder) {
	c.integer(&m.Round)
	c.boolean(&m.Done)
	c.floats(&m.Delta)
}

func (m *VectorReport) code(c *coder) {
	c.integer(&m.Round)
	c.integer(&m.Node)
	c.floats(&m.Marginals)
	c.floats(&m.Allocs)
}

func (m *Access) code(c *coder) {
	c.uvarint(&m.ID)
	c.integer(&m.Origin)
	c.float(&m.T)
	c.integer(&m.Epoch)
}

func (m *AccessReply) code(c *coder) {
	c.uvarint(&m.ID)
	c.integer(&m.Node)
	c.integer(&m.Origin)
	c.integer(&m.Epoch)
	c.varint(&m.LatencyMicros)
	c.boolean(&m.Degraded)
	c.str(&m.Err)
}

func (m *Plan) code(c *coder) {
	c.uvarint(&m.ID)
	c.integer(&m.Epoch)
	c.floats(&m.X)
	c.bools(&m.Alive)
	c.boolean(&m.Degraded)
	c.float(&m.Lambda)
	c.float(&m.Q)
}

func (m *PlanAck) code(c *coder) {
	c.uvarint(&m.ID)
	c.integer(&m.Epoch)
	c.integer(&m.Node)
}

func (m *Ping) code(c *coder) {
	c.uvarint(&m.ID)
	c.float(&m.T)
}

func (m *Pong) code(c *coder) {
	c.uvarint(&m.ID)
	c.integer(&m.Node)
	c.integer(&m.Epoch)
	c.floats(&m.Rates)
}

func (m *AggUp) code(c *coder) {
	c.integer(&m.Round)
	c.integer(&m.Pass)
	c.integer(&m.Epoch)
	c.integer(&m.Node)
	m.Agg.code(c)
}

func (a *Aggregate) code(c *coder) {
	c.float(&a.SumG)
	c.float(&a.SumGC)
	c.float(&a.SumH)
	c.float(&a.SumHC)
	c.float(&a.SumX)
	c.float(&a.SumXC)
	c.integer(&a.Count)
	c.float(&a.MinG)
	c.float(&a.MaxG)
	c.integer(&a.BoundCount)
	c.float(&a.BoundMinG)
	c.integer(&a.OutNode)
	c.float(&a.OutG)
	c.integer(&a.Changed)
	c.integer(&a.RatioCount)
	c.float(&a.MinRatio)
}

func (m *AggDown) code(c *coder) {
	c.integer(&m.Round)
	c.integer(&m.Pass)
	c.integer(&m.Epoch)
	c.float(&m.Avg)
	c.integer(&m.Count)
	c.boolean(&m.Drop)
	c.integer(&m.Readmit)
	c.boolean(&m.Final)
	c.float(&m.Truncation)
	c.float(&m.Spread)
	c.boolean(&m.Converged)
	c.boolean(&m.NoOp)
}

func (m *GossipExtrema) code(c *coder) {
	c.integer(&m.Round)
	c.integer(&m.Tick)
	c.integer(&m.Epoch)
	c.integer(&m.Node)
	c.boolean(&m.HasInt)
	c.float(&m.IntMinG)
	c.float(&m.IntMaxG)
	c.boolean(&m.BoundOK)
	c.boolean(&m.HasOut)
	c.float(&m.OutG)
	c.integer(&m.OutNode)
	c.boolean(&m.HasShare)
	if m.HasShare {
		c.float(&m.SG)
		c.float(&m.SGC)
		c.float(&m.WA)
		c.float(&m.SX)
		c.float(&m.SXC)
		c.float(&m.WN)
	}
}

// coder runs a body description in one direction: encoding appends each
// field to buf and never writes the message; decoding parses buf[off:]
// into the fields. The first error latches: every later field is then
// skipped (left zero when decoding), so descriptions stay linear and
// the final err check is the single one.
type coder struct {
	dec bool
	buf []byte
	off int
	err error
}

// fail latches a truncation error, unless an error has latched already.
func (c *coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated %s at byte %d", ErrBadMessage, what, c.off)
	}
}

func (c *coder) varint(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	x, n := binary.Varint(c.buf[c.off:])
	if c.err != nil || n <= 0 {
		c.fail("varint")
		return
	}
	c.off += n
	*v = x
}

// integer codes an int field as a varint limited to the int32 range on
// both sides: a hostile frame must not silently wrap indices, and the
// encoder must not write a frame the decoder rejects.
func (c *coder) integer(v *int) {
	x := int64(*v)
	if c.dec {
		c.varint(&x)
	} else {
		c.buf = binary.AppendVarint(c.buf, x)
	}
	if c.err == nil && (x > math.MaxInt32 || x < math.MinInt32) {
		c.err = fmt.Errorf("%w: integer field %d out of range", ErrBadMessage, x)
	}
	if c.dec && c.err == nil {
		*v = int(x)
	}
}

func (c *coder) uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if c.err != nil || n <= 0 {
		c.fail("uvarint")
		return
	}
	c.off += n
	*v = x
}

func (c *coder) float(v *float64) {
	if !c.dec {
		if c.err == nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
			c.err = fmt.Errorf("%w: non-finite float %v", ErrBadMessage, *v)
		}
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if c.err != nil || c.off+8 > len(c.buf) {
		c.fail("float64")
		return
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	if math.IsNaN(x) || math.IsInf(x, 0) {
		c.err = fmt.Errorf("%w: non-finite float %v at byte %d", ErrBadMessage, x, c.off)
		return
	}
	c.off += 8
	*v = x
}

func (c *coder) boolean(v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.err != nil || c.off >= len(c.buf) {
		c.fail("bool")
		return
	}
	b := c.buf[c.off]
	if b > 1 {
		c.err = fmt.Errorf("%w: bool byte %d", ErrBadMessage, b)
		return
	}
	c.off++
	*v = b == 1
}

// count codes the length n of a slice or string whose elements take
// size bytes each. Decoding, it returns the count read, checked against
// the remaining body before anything is allocated from it (a count
// beyond that is a lie), or 0 after an error.
func (c *coder) count(n, size int, what string) int {
	x := uint64(n)
	c.uvarint(&x)
	if !c.dec {
		return n
	}
	if c.err != nil || x > uint64(len(c.buf)-c.off)/uint64(size) {
		c.fail(what)
		return 0
	}
	return int(x)
}

func (c *coder) str(s *string) {
	n := c.count(len(*s), 1, "string")
	if !c.dec {
		c.buf = append(c.buf, *s...)
		return
	}
	*s = string(c.buf[c.off : c.off+n])
	c.off += n
}

// floats and bools decode an empty slice as nil.
func (c *coder) floats(vs *[]float64) {
	if n := c.count(len(*vs), 8, "float64 slice"); c.dec && n > 0 {
		*vs = make([]float64, n)
	}
	for i := range *vs {
		c.float(&(*vs)[i])
	}
}

func (c *coder) bools(vs *[]bool) {
	if n := c.count(len(*vs), 1, "bool slice"); c.dec && n > 0 {
		*vs = make([]bool, n)
	}
	for i := range *vs {
		c.boolean(&(*vs)[i])
	}
}
