package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
			s, err := NewStore(dir, 1, 4, 0)
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
