package protocol

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// bodyCount returns the number of populated payload pointers; a decoded
// envelope must carry exactly one, matching its kind.
func bodyCount(env Envelope) int {
	n := 0
	for _, p := range []bool{
		env.Report != nil, env.Update != nil, env.Vector != nil,
		env.Access != nil, env.AccessReply != nil, env.Plan != nil,
		env.PlanAck != nil, env.Ping != nil, env.Pong != nil,
		env.AggUp != nil, env.AggDown != nil, env.GossipExtrema != nil,
	} {
		if p {
			n++
		}
	}
	return n
}

// checkEnvelope asserts the decoded envelope is internally consistent:
// a known kind with exactly the matching body populated.
func checkEnvelope(t *testing.T, env Envelope) {
	t.Helper()
	if _, ok := kindToCode[env.Kind]; !ok {
		t.Fatalf("accepted unknown kind %q", env.Kind)
	}
	if n := bodyCount(env); n != 1 {
		t.Fatalf("decoded %s envelope carries %d bodies, want 1", env.Kind, n)
	}
	if _, err := EncodeBinary(env); err != nil {
		t.Fatalf("decoded %s envelope does not re-encode: %v", env.Kind, err)
	}
}

// FuzzDecode feeds arbitrary bytes to the wire decoder: it must never
// panic, whatever it rejects must be ErrBadMessage, and whatever it
// accepts must carry a consistent envelope.
func FuzzDecode(f *testing.F) {
	seed, err := EncodeReport(Report{Round: 1, Node: 2, Marginal: -3.5, Alloc: 0.25})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	upd, err := EncodeUpdate(Update{Round: 9, Delta: []float64{0.1, -0.1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upd)
	vec, err := EncodeVectorReport(VectorReport{Round: 3, Node: 0, Marginals: []float64{1}, Allocs: []float64{1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vec)
	bin, err := EncodeBinary(Envelope{Kind: KindReport, Report: &Report{Round: 1, Node: 2, Marginal: -3.5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add([]byte(`{"kind":"report"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"kind":"update","update":{"round":-1}}`))
	f.Add([]byte{binMagic, BinaryVersion, codeAggDown, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		env, err := Decode(payload)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decode failed with a non-ErrBadMessage error: %v", err)
			}
			return
		}
		checkEnvelope(t, env)
	})
}

// FuzzBinaryCodec is the binary round-trip target: arbitrary bytes must
// never panic the decoder, every accepted frame must survive
// decode→encode→decode with byte-identical canonical encoding (which
// tells -0 from +0, where == cannot), and every truncation of a valid
// frame must be rejected as ErrBadMessage.
func FuzzBinaryCodec(f *testing.F) {
	for _, env := range binarySeedEnvelopes() {
		frame, err := EncodeBinary(env)
		if err != nil {
			f.Fatalf("seeding %s: %v", env.Kind, err)
		}
		f.Add(frame)
	}
	for name, build := range nonFiniteCases() {
		frame, err := EncodeBinary(build(nonFiniteSentinel))
		if err != nil {
			f.Fatalf("seeding %s: %v", name, err)
		}
		f.Add(withFloat(frame, math.NaN()))
	}
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, BinaryVersion})
	f.Add([]byte{binMagic, BinaryVersion + 1, codeReport, 0})
	f.Add([]byte{binMagic, 1, codeReport, 0})
	f.Add([]byte{binMagic, BinaryVersion, 12, 0})
	f.Add([]byte{binMagic, BinaryVersion, 255, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		env, err := Decode(payload)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("binary decode failed with a non-ErrBadMessage error: %v", err)
			}
			return
		}
		checkEnvelope(t, env)
		// Canonical round trip: re-encoding the decoded envelope must
		// reproduce itself exactly.
		enc1, err := EncodeBinary(env)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		env2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("decoding re-encoded frame: %v", err)
		}
		enc2, err := EncodeBinary(env2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("binary round trip is not a fixed point:\n  %x\n  %x", enc1, enc2)
		}
		// Every strict prefix of a valid frame is truncated, and must be
		// ErrBadMessage — never a panic, never a silent partial decode.
		for cut := 0; cut < len(enc1); cut++ {
			if _, err := Decode(enc1[:cut]); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("truncated frame (%d of %d bytes) decoded with err=%v, want ErrBadMessage", cut, len(enc1), err)
			}
		}
	})
}
