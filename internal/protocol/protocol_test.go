package protocol

import (
	"errors"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	in := Report{Round: 7, Node: 3, Marginal: -2.718281828459045, Alloc: 0.1}
	payload, err := EncodeReport(in)
	if err != nil {
		t.Fatalf("EncodeReport: %v", err)
	}
	env, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if env.Kind != KindReport || env.Update != nil {
		t.Fatalf("kind = %v, update = %v", env.Kind, env.Update)
	}
	if *env.Report != in {
		t.Errorf("round trip = %+v, want %+v", *env.Report, in)
	}
}

func TestReportFloatExactness(t *testing.T) {
	// The protocol's determinism depends on float64 values surviving the
	// wire bit-exactly; the codec carries each one as its IEEE-754 bit
	// pattern.
	values := []float64{
		-2.9387528349794507,
		1.0 / 3,
		0.1 + 0.2,
		5e-324, // smallest denormal
	}
	for _, v := range values {
		payload, err := EncodeReport(Report{Marginal: v, Alloc: v})
		if err != nil {
			t.Fatal(err)
		}
		env, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.Report.Marginal != v || env.Report.Alloc != v {
			t.Errorf("value %v did not survive the wire: %v / %v", v, env.Report.Marginal, env.Report.Alloc)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := Update{Round: 2, Delta: []float64{0.1, -0.05, -0.05}, Done: true}
	payload, err := EncodeUpdate(in)
	if err != nil {
		t.Fatalf("EncodeUpdate: %v", err)
	}
	env, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if env.Kind != KindUpdate || env.Report != nil {
		t.Fatalf("kind = %v, report = %v", env.Kind, env.Report)
	}
	if env.Update.Round != 2 || !env.Update.Done || len(env.Update.Delta) != 3 {
		t.Errorf("round trip = %+v", *env.Update)
	}
}

func TestVectorReportRoundTrip(t *testing.T) {
	in := VectorReport{
		Round:     4,
		Node:      2,
		Marginals: []float64{-1.5, -2.25, -0.125},
		Allocs:    []float64{0.5, 0.25, 0.25},
	}
	payload, err := EncodeVectorReport(in)
	if err != nil {
		t.Fatalf("EncodeVectorReport: %v", err)
	}
	env, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if env.Kind != KindVectorReport || env.Vector == nil {
		t.Fatalf("kind = %v", env.Kind)
	}
	got := env.Vector
	if got.Round != in.Round || got.Node != in.Node {
		t.Errorf("round trip = %+v", got)
	}
	for f := range in.Marginals {
		if got.Marginals[f] != in.Marginals[f] || got.Allocs[f] != in.Allocs[f] {
			t.Errorf("entry %d did not survive: %+v", f, got)
		}
	}
}

func TestVectorRoundBuffer(t *testing.T) {
	buf := NewRoundBuffer[VectorReport](3)
	if err := buf.Add(VectorReport{Round: 0, Node: 1, Marginals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Add(VectorReport{Round: 0, Node: 1}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("conflicting duplicate: error = %v", err)
	}
	if err := buf.Add(VectorReport{Round: 0, Node: 1, Marginals: []float64{1}}); !errors.Is(err, ErrDuplicateReport) {
		t.Errorf("identical duplicate: error = %v, want ErrDuplicateReport", err)
	}
	if err := buf.Add(VectorReport{Round: 0, Node: 9}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("stranger: error = %v", err)
	}
	if buf.Count(0) >= 2 {
		t.Error("complete with one report")
	}
	if err := buf.Add(VectorReport{Round: 0, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if buf.Count(0) < 2 {
		t.Error("not complete with both")
	}
	got := buf.Take(0)
	if len(got) != 2 || got[1].Marginals[0] != 1 {
		t.Errorf("Take = %+v", got)
	}
	if buf.Count(0) >= 1 {
		t.Error("round not cleared after Take")
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name    string
		payload []byte
	}{
		{"garbage", []byte("{{{{")},
		{"unknown kind", []byte(`{"kind":"gossip"}`)},
		{"report without body", []byte(`{"kind":"report"}`)},
		{"update without body", []byte(`{"kind":"update"}`)},
		{"vector without body", []byte(`{"kind":"vector-report"}`)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.payload); !errors.Is(err, ErrBadMessage) {
				t.Errorf("error = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestRoundBufferCollects(t *testing.T) {
	buf := NewRoundBuffer[Report](3)
	if buf.Count(0) >= 2 {
		t.Error("empty buffer reported complete")
	}
	if err := buf.Add(Report{Round: 0, Node: 1}); err != nil {
		t.Fatal(err)
	}
	// A peer running one round ahead must not satisfy round 0.
	if err := buf.Add(Report{Round: 1, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if buf.Count(0) >= 2 {
		t.Error("round 0 complete with a round-1 report")
	}
	if err := buf.Add(Report{Round: 0, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if buf.Count(0) < 2 {
		t.Error("round 0 not complete with both reports")
	}
	got := buf.Take(0)
	if len(got) != 2 || got[1].Round != 0 || got[2].Round != 0 {
		t.Errorf("Take = %+v", got)
	}
	// Round 1's early report is still buffered.
	if buf.Count(1) < 1 {
		t.Error("round 1 early report lost")
	}
}

func TestRoundBufferPeek(t *testing.T) {
	buf := NewRoundBuffer[Report](4)
	if got := buf.Peek(1); got != nil {
		t.Errorf("Peek on empty round = %+v, want nil", got)
	}
	for _, node := range []int{3, 0, 2} {
		if err := buf.Add(Report{Round: 1, Node: node, Marginal: float64(-node)}); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Peek(1)
	if len(got) != 3 || got[0].Node != 0 || got[1].Node != 2 || got[2].Node != 3 {
		t.Fatalf("Peek = %+v, want nodes 0, 2, 3 in order", got)
	}
	// Peek copies: the reports stay buffered and edits do not leak in.
	got[0].Marginal = 99
	if buf.Count(1) != 3 || buf.Take(1)[0].Marginal != 0 {
		t.Error("Peek removed or aliased buffered reports")
	}
}

func TestRoundBufferRejectsDuplicatesAndStrangers(t *testing.T) {
	buf := NewRoundBuffer[Report](2)
	if err := buf.Add(Report{Round: 0, Node: 1}); err != nil {
		t.Fatal(err)
	}
	// Identical re-delivery is benign (at-least-once transports); the
	// buffer flags it with the discardable sentinel.
	if err := buf.Add(Report{Round: 0, Node: 1}); !errors.Is(err, ErrDuplicateReport) {
		t.Errorf("identical duplicate: error = %v, want ErrDuplicateReport", err)
	}
	if got := buf.Count(0); got != 1 {
		t.Errorf("Count after duplicate = %d, want 1", got)
	}
	// A conflicting duplicate is a protocol violation.
	if err := buf.Add(Report{Round: 0, Node: 1, Marginal: -3}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("conflicting duplicate: error = %v, want ErrBadMessage", err)
	}
	if err := buf.Add(Report{Round: 0, Node: 5}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("stranger: error = %v, want ErrBadMessage", err)
	}
}

func TestRoundOf(t *testing.T) {
	rep, err := EncodeReport(Report{Round: 3, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if round, ok := RoundOf(rep); !ok || round != 3 {
		t.Errorf("report RoundOf = %d, %v", round, ok)
	}
	upd, err := EncodeUpdate(Update{Round: 9})
	if err != nil {
		t.Fatal(err)
	}
	if round, ok := RoundOf(upd); !ok || round != 9 {
		t.Errorf("update RoundOf = %d, %v", round, ok)
	}
	vec, err := EncodeVectorReport(VectorReport{Round: 5, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	if round, ok := RoundOf(vec); !ok || round != 5 {
		t.Errorf("vector RoundOf = %d, %v", round, ok)
	}
	if _, ok := RoundOf([]byte("not a protocol message")); ok {
		t.Error("garbage payload reported a round")
	}
}
