package recovery

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"filealloc/internal/agent"
	"filealloc/internal/protocol"
)

func sampleCheckpoint(t *testing.T, round int) Checkpoint {
	t.Helper()
	c := Checkpoint{
		Version: Version,
		Node:    1,
		Peers:   4,
		Round:   round,
		X:       0.25,
		FullX:   []float64{0.5, 0.25, 0.25, 0},
		Alive:   []bool{true, true, true, true},
		Planned: 0b1111,
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := sampleCheckpoint(t, 7)
	path := filepath.Join(dir, fileName(7))
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 7 || got.Node != 1 || got.X != 0.25 || got.Planned != 0b1111 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	for i, xi := range c.FullX {
		if got.FullX[i] != xi {
			t.Errorf("FullX[%d] = %v, want %v", i, got.FullX[i], xi)
		}
	}
	// No temp files left behind by the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	c := sampleCheckpoint(t, 3)
	path := filepath.Join(dir, fileName(3))
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the allocation: the checksum must catch it.
	tampered := strings.Replace(string(b), "0.25", "0.26", 1)
	if tampered == string(b) {
		t.Fatal("tampering had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered ReadFile = %v, want ErrCorrupt", err)
	}
	// Truncated file.
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated ReadFile = %v, want ErrCorrupt", err)
	}
	// Wrong version.
	wrong := c
	wrong.Version = Version + 1
	if err := wrong.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := wrong.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong-version Validate = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointValidateShapeChecks(t *testing.T) {
	cases := []func(*Checkpoint){
		func(c *Checkpoint) { c.Node = 9 },
		func(c *Checkpoint) { c.Round = -1 },
		func(c *Checkpoint) { c.FullX = c.FullX[:2] },
		func(c *Checkpoint) { c.Alive = []bool{true, false, true, true} }, // own node departed
		func(c *Checkpoint) { c.X = -0.5 },
		func(c *Checkpoint) { c.FullX[0] = -1 },
	}
	for i, mutate := range cases {
		c := sampleCheckpoint(t, 1)
		mutate(&c)
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: Validate = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestCheckpointEarlyReports(t *testing.T) {
	c := sampleCheckpoint(t, 5)
	plain, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "early") {
		t.Errorf("checkpoint without early reports encodes the field: %s", plain)
	}

	c.Early = []protocol.Report{
		{Round: 5, Node: 0, Marginal: -1.5, Alloc: 0.5, Planned: 0b1111},
		{Round: 5, Node: 3, Marginal: -2.25, Alloc: 0, Planned: 0b1111},
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fileName(5))
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Early, c.Early) {
		t.Errorf("early reports roundtrip = %+v, want %+v", got.Early, c.Early)
	}

	cases := map[string][]protocol.Report{
		"wrong round":  {{Round: 4, Node: 0}},
		"own node":     {{Round: 5, Node: 1}},
		"outside":      {{Round: 5, Node: 4}},
		"negative":     {{Round: 5, Node: -1}},
		"duplicate":    {{Round: 5, Node: 0}, {Round: 5, Node: 0}},
		"out of order": {{Round: 5, Node: 3}, {Round: 5, Node: 0}},
	}
	for name, early := range cases {
		bad := sampleCheckpoint(t, 5)
		bad.Early = early
		if err := bad.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := bad.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestCheckpointSupportAndSum(t *testing.T) {
	c := sampleCheckpoint(t, 0)
	s := c.Support()
	if len(s) != 3 || s[0] != 0 || s[1] != 1 || s[2] != 2 {
		t.Errorf("Support() = %v, want [0 1 2]", s)
	}
	if got := c.SumX(); got != 1 {
		t.Errorf("SumX() = %v, want 1", got)
	}
}

func TestStoreSaveLatestPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.5, 0.25, 0.25, 0}
	alive := []bool{true, true, true, true}
	for round := 0; round < 6; round++ {
		if err := s.SaveRound(agent.RoundState{Round: round, X: 0.25, FullX: xs, Alive: alive, Planned: 0b1111}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("store holds %d files after pruning, want 2", len(entries))
	}
	ck, ok, err := s.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest = ok=%t, %v", ok, err)
	}
	if ck.Round != 5 {
		t.Errorf("Latest round = %d, want 5", ck.Round)
	}
	// Corrupt the newest file: Latest falls back to the previous one.
	if err := os.WriteFile(filepath.Join(dir, fileName(5)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, ok, err = s.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest after corruption = ok=%t, %v", ok, err)
	}
	if ck.Round != 4 {
		t.Errorf("fallback Latest round = %d, want 4", ck.Round)
	}
}

func TestStoreLatestEmptyAndAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Latest(); ok || err != nil {
		t.Fatalf("empty Latest = ok=%t, %v; want ok=false, nil", ok, err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(2)), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("all-corrupt Latest = %v, want ErrCorrupt", err)
	}
}

func TestStoreRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A checkpoint from another node parked in this store's directory.
	c := sampleCheckpoint(t, 2)
	if err := WriteFile(filepath.Join(dir, fileName(2)), c); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("foreign-node Latest = %v, want ErrCorrupt", err)
	}
}

func TestMemStoreHistoryAndLatest(t *testing.T) {
	m := NewMemStore(0, 2)
	if _, ok, err := m.Latest(); ok || err != nil {
		t.Fatalf("empty Latest = ok=%t, %v", ok, err)
	}
	xs := []float64{0.6, 0.4}
	alive := []bool{true, true}
	for round := 0; round < 3; round++ {
		if err := m.SaveRound(agent.RoundState{Round: round, X: xs[0], FullX: xs, Alive: alive, Planned: 0b11}); err != nil {
			t.Fatal(err)
		}
	}
	h := m.History()
	if len(h) != 3 || h[2].Round != 2 {
		t.Fatalf("History = %d entries, last round %d", len(h), h[len(h)-1].Round)
	}
	ck, ok, err := m.Latest()
	if err != nil || !ok || ck.Round != 2 {
		t.Errorf("Latest = %+v, ok=%t, %v", ck, ok, err)
	}
	for _, c := range h {
		if err := c.Validate(); err != nil {
			t.Errorf("round %d checkpoint invalid: %v", c.Round, err)
		}
	}
}
