package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"filealloc/internal/agent"
	"filealloc/internal/protocol"
)

// TestCheckpointFileFormatPinned writes a fixed round state through Store
// and pins the SHA-256 of the file on disk. Resuming reads files written
// by earlier builds, so a change to the encoding — field order, names,
// omission rules, float formatting — must show up here rather than as a
// checksum mismatch on a restarted node.
func TestCheckpointFileFormatPinned(t *testing.T) {
	early := []protocol.Report{
		{Round: 7, Node: 0, Marginal: -2.5, Alloc: 0.125, Planned: 0b0111},
		{Round: 7, Node: 2, Marginal: -2.25, Alloc: 0.375, Curvature: -0.5, Planned: 0b0111},
	}
	tests := []struct {
		name  string
		early []protocol.Report
		want  string
	}{
		{"without early reports", nil, "51af36b7e2ae221f98d2019f78fddc4b50992a757651175c7c2d5b5596228151"},
		{"with early reports", early, "1251dc4936edc23faff734b5650294778054de6661770226808fb0d69c180bad"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(dir, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			xs := []float64{0.125, 0.5, 0.375, 0}
			alive := []bool{true, true, true, false}
			st := agent.RoundState{Round: 7, X: xs[1], FullX: xs, Alive: alive, Planned: 0b0111, Early: tt.early}
			if err := s.SaveRound(st); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, fileName(7)))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tt.want {
				t.Errorf("checkpoint file SHA-256 = %s, want %s\nfile: %s", got, tt.want, b)
			}
			c, err := Decode(b)
			if err != nil {
				t.Fatalf("pinned file does not decode: %v", err)
			}
			if c.Round != 7 || c.X != 0.5 || len(c.Early) != len(tt.early) {
				t.Errorf("decoded %+v", c)
			}
			// MemStore seals the same checkpoint for the same state.
			m := NewMemStore(1, 4)
			if err := m.SaveRound(st); err != nil {
				t.Fatal(err)
			}
			mb, err := json.Marshal(m.History()[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(append(mb, '\n')) != string(b) {
				t.Errorf("MemStore checkpoint %s differs from the Store file %s", mb, b)
			}
		})
	}
}

// TestEarlyReportsSurviveWireAndCheckpoint covers the one place where
// JSON still meets the wire: reports decoded off the wire are kept as a
// checkpoint's early reports. For finite values, the path wire bytes →
// protocol.Decode → Checkpoint.Early → Store file →
// Checkpoint.State().Early must return every report bit for bit.
// Curvature is omitempty in JSON, so a -0 there would reload as +0;
// -0 is therefore placed in the fields that always encode.
func TestEarlyReportsSurviveWireAndCheckpoint(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sent := []protocol.Report{
		{Round: 7, Node: 0, Marginal: 5e-324, Alloc: negZero, Curvature: 1.0 / 3, Planned: 1<<63 | 0b1011},
		{Round: 7, Node: 2, Marginal: negZero, Alloc: 1.0 / 3, Curvature: 5e-324, Planned: 1 << 63},
		{Round: 7, Node: 3, Marginal: -1.0 / 3, Alloc: 5e-324, Curvature: -5e-324, Planned: math.MaxUint64},
	}
	var early []protocol.Report
	for _, r := range sent {
		wire, err := protocol.EncodeReport(r)
		if err != nil {
			t.Fatal(err)
		}
		env, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		early = append(early, *env.Report)
	}
	s, err := NewStore(t.TempDir(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.25, 0.25, 0.25, 0.25}
	st := agent.RoundState{Round: 7, X: 0.25, FullX: xs, Alive: []bool{true, true, true, true}, Planned: 0b1111, Early: early}
	if err := s.SaveRound(st); err != nil {
		t.Fatal(err)
	}
	c, ok, err := s.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest = ok %v, err %v", ok, err)
	}
	got := c.State().Early
	if len(got) != len(sent) {
		t.Fatalf("restored %d early reports, want %d", len(got), len(sent))
	}
	bits := math.Float64bits
	for i, w := range sent {
		g := got[i]
		if g.Round != w.Round || g.Node != w.Node || g.Planned != w.Planned ||
			bits(g.Marginal) != bits(w.Marginal) || bits(g.Alloc) != bits(w.Alloc) || bits(g.Curvature) != bits(w.Curvature) {
			t.Errorf("report %d: restored %+v, want %+v bit for bit", i, g, w)
		}
	}
}
