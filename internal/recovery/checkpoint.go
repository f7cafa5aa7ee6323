// Package recovery adds crash recovery to the decentralized allocation
// protocol: deterministic versioned checkpoints of agent round state, a
// supervisor that restarts crashed agents with capped seeded backoff and
// resumes them from their latest valid checkpoint, and membership-churn
// runs where survivors redistribute a departed node's fraction without
// ever leaving Σx_i = 1 (Theorem 1) and a departed node rejoins a later
// epoch with a zero fragment.
package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"filealloc/internal/agent"
	"filealloc/internal/protocol"
)

// Sentinel errors.
var (
	// ErrNoCheckpoint reports an empty store: nothing to resume from.
	ErrNoCheckpoint = errors.New("recovery: no checkpoint")
	// ErrCorrupt reports a checkpoint that fails validation (bad
	// checksum, wrong version, inconsistent shape).
	ErrCorrupt = errors.New("recovery: corrupt checkpoint")
)

// Version is the current checkpoint format version. Loaders reject any
// other value rather than guess at field semantics.
const Version = 1

// Checkpoint is the durable round state of one agent, captured at the top
// of a round before any message of that round is sent. Restoring it and
// re-running from Round reproduces the uninterrupted trajectory bit for
// bit: every field the round loop reads is here, and nothing
// non-deterministic (no timestamps, no wall-clock anything) is recorded.
type Checkpoint struct {
	Version int `json:"version"`
	// Node and Peers pin the checkpoint to its cluster position.
	Node  int `json:"node"`
	Peers int `json:"peers"`
	// Round is the round the state belongs to — the round to resume at.
	Round int `json:"round"`
	// X is the node's own fragment at the top of Round.
	X float64 `json:"x"`
	// FullX is the node's view of the full allocation.
	FullX []float64 `json:"full_x"`
	// Alive is the live-membership view; false entries are departed.
	Alive []bool `json:"alive"`
	// Planned is the bitmask fingerprint of the previous round's
	// planning group (zero: no previous plan).
	Planned uint64 `json:"planned"`
	// Early holds the peer reports for Round that were read before the
	// round began, in ascending node order. Their senders will not send
	// them again, so a resume restores them instead of waiting for them.
	// Omitted when empty, which leaves the encoding of a checkpoint
	// without early reports unchanged.
	Early []protocol.Report `json:"early,omitempty"`
	// Checksum is the hex SHA-256 of the canonical JSON encoding of the
	// checkpoint with this field empty; it detects torn or bit-rotted
	// files.
	Checksum string `json:"checksum"`
}

// digest computes the checkpoint's canonical checksum.
func (c Checkpoint) digest() (string, error) {
	c.Checksum = ""
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("recovery: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Seal fills in the checksum.
func (c *Checkpoint) Seal() error {
	d, err := c.digest()
	if err != nil {
		return err
	}
	c.Checksum = d
	return nil
}

// Validate checks the checkpoint's integrity and internal consistency.
func (c Checkpoint) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, c.Version, Version)
	}
	d, err := c.digest()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if c.Checksum != d {
		return fmt.Errorf("%w: checksum mismatch (stored %.12s…, computed %.12s…)", ErrCorrupt, c.Checksum, d)
	}
	if c.Peers < 2 {
		return fmt.Errorf("%w: cluster of %d", ErrCorrupt, c.Peers)
	}
	if c.Node < 0 || c.Node >= c.Peers {
		return fmt.Errorf("%w: node %d outside cluster of %d", ErrCorrupt, c.Node, c.Peers)
	}
	if c.Round < 0 {
		return fmt.Errorf("%w: round %d", ErrCorrupt, c.Round)
	}
	if len(c.FullX) != c.Peers || len(c.Alive) != c.Peers {
		return fmt.Errorf("%w: %d fragments and %d alive entries for cluster of %d", ErrCorrupt, len(c.FullX), len(c.Alive), c.Peers)
	}
	if !c.Alive[c.Node] {
		return fmt.Errorf("%w: checkpoint declares its own node departed", ErrCorrupt)
	}
	if c.X < 0 || math.IsNaN(c.X) || math.IsInf(c.X, 0) {
		return fmt.Errorf("%w: fragment x = %v", ErrCorrupt, c.X)
	}
	for i, xi := range c.FullX {
		if xi < 0 || math.IsNaN(xi) || math.IsInf(xi, 0) {
			return fmt.Errorf("%w: full_x[%d] = %v", ErrCorrupt, i, xi)
		}
	}
	prev := -1
	for _, r := range c.Early {
		if r.Round != c.Round {
			return fmt.Errorf("%w: early report for round %d in round-%d checkpoint", ErrCorrupt, r.Round, c.Round)
		}
		if r.Node <= prev || r.Node >= c.Peers || r.Node == c.Node {
			return fmt.Errorf("%w: early report from node %d (reports must come from distinct peers in ascending order)", ErrCorrupt, r.Node)
		}
		prev = r.Node
	}
	return nil
}

// Support returns the indices holding a strictly positive fragment.
func (c Checkpoint) Support() []int {
	var s []int
	for i, xi := range c.FullX {
		if xi > 0 {
			s = append(s, i)
		}
	}
	return s
}

// SumX returns Σ FullX.
func (c Checkpoint) SumX() float64 {
	var sum float64
	for _, xi := range c.FullX {
		sum += xi
	}
	return sum
}

// sealState builds the sealed checkpoint of one node's round state,
// copying its slices.
func sealState(node, peers int, st agent.RoundState) (Checkpoint, error) {
	c := Checkpoint{
		Version: Version,
		Node:    node,
		Peers:   peers,
		Round:   st.Round,
		X:       st.X,
		FullX:   append([]float64(nil), st.FullX...),
		Alive:   append([]bool(nil), st.Alive...),
		Planned: st.Planned,
		Early:   append([]protocol.Report(nil), st.Early...),
	}
	if err := c.Seal(); err != nil {
		return Checkpoint{}, err
	}
	return c, nil
}

// State returns the round state the checkpoint restores, for
// agent.Config.Resume.
func (c Checkpoint) State() *agent.RoundState {
	return &agent.RoundState{Round: c.Round, X: c.X, FullX: c.FullX, Alive: c.Alive, Planned: c.Planned, Early: c.Early}
}

// fileName is the canonical on-disk name for a round's checkpoint; the
// fixed-width round makes lexical order equal round order.
func fileName(round int) string {
	return fmt.Sprintf("ckpt-%09d.json", round)
}

// WriteFile atomically persists a sealed checkpoint: it marshals to a
// temporary file in the target directory and renames it into place, so a
// crash mid-write leaves either the old file or the new one, never a torn
// half.
func WriteFile(path string, c Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("recovery: encoding checkpoint: %w", err)
	}
	b = append(b, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("recovery: creating temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()            //fap:ignore errdrop best-effort cleanup after a failed write
		_ = os.Remove(tmpName) // best-effort cleanup
		return fmt.Errorf("recovery: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup
		return fmt.Errorf("recovery: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup
		return fmt.Errorf("recovery: committing checkpoint: %w", err)
	}
	return nil
}

// ReadFile loads and validates a checkpoint file.
func ReadFile(path string) (Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("recovery: reading checkpoint: %w", err)
	}
	return Decode(b)
}

// Decode parses and validates checkpoint bytes (the WriteFile encoding).
// Corrupt or truncated input yields ErrCorrupt, never a panic — the
// contract FuzzCheckpointValidate hammers on.
func Decode(b []byte) (Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(b, &c); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := c.Validate(); err != nil {
		return Checkpoint{}, err
	}
	return c, nil
}

// Store is the durable agent.CheckpointSink: one directory per node,
// one file per round, atomic writes, and pruning of all but the newest
// Keep files. It also serves as the resume source via Latest.
type Store struct {
	dir   string
	node  int
	peers int
	keep  int

	mu     sync.Mutex
	rounds []int // saved rounds, ascending
}

// NewStore opens (creating if needed) a checkpoint directory for one node
// of a cluster of peers nodes. keep bounds the files retained (minimum
// and default 2: the current round and its predecessor, so an invalid
// newest file still leaves a resume point).
func NewStore(dir string, node, peers, keep int) (*Store, error) {
	if peers < 2 || node < 0 || node >= peers {
		return nil, fmt.Errorf("recovery: node %d outside cluster of %d", node, peers)
	}
	if keep == 0 {
		keep = 2
	}
	if keep < 2 {
		return nil, fmt.Errorf("recovery: keep = %d (need at least 2)", keep)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: creating checkpoint dir: %w", err)
	}
	return &Store{dir: dir, node: node, peers: peers, keep: keep}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SaveRound implements agent.CheckpointSink: it seals and atomically
// writes the round's checkpoint, then prunes old files.
func (s *Store) SaveRound(st agent.RoundState) error {
	c, err := sealState(s.node, s.peers, st)
	if err != nil {
		return err
	}
	if err := WriteFile(filepath.Join(s.dir, fileName(st.Round)), c); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds = append(s.rounds, st.Round)
	sort.Ints(s.rounds)
	for len(s.rounds) > s.keep {
		old := s.rounds[0]
		s.rounds = s.rounds[1:]
		if err := os.Remove(filepath.Join(s.dir, fileName(old))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("recovery: pruning checkpoint for round %d: %w", old, err)
		}
	}
	return nil
}

// Latest returns the highest-round valid checkpoint in the store's
// directory. ok is false when the directory holds no checkpoint files at
// all; files that exist but fail validation are skipped, and if every
// file is invalid the error is ErrCorrupt — a store that has data but
// cannot produce a resume point fails loudly rather than silently
// restarting from scratch.
func (s *Store) Latest() (c Checkpoint, ok bool, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("recovery: scanning checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) < 5 || name[:5] != "ckpt-" || filepath.Ext(name) != ".json" {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return Checkpoint{}, false, nil
	}
	// Fixed-width names make lexical descending order round-descending.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var firstErr error
	for _, name := range names {
		c, err := ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if c.Node != s.node || c.Peers != s.peers {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: checkpoint for node %d/%d in store for node %d/%d", ErrCorrupt, c.Node, c.Peers, s.node, s.peers)
			}
			continue
		}
		return c, true, nil
	}
	return Checkpoint{}, false, fmt.Errorf("%w: no valid checkpoint among %d files (first error: %v)", ErrCorrupt, len(names), firstErr)
}

// MemStore is an in-memory agent.CheckpointSink that records every saved
// round — the test harness's window into per-round state for Σx = 1
// property assertions and bit-identical trajectory comparison.
type MemStore struct {
	mu      sync.Mutex
	node    int
	peers   int
	history []Checkpoint
}

// NewMemStore builds a MemStore for one node of a cluster of peers nodes.
func NewMemStore(node, peers int) *MemStore {
	return &MemStore{node: node, peers: peers}
}

// SaveRound implements agent.CheckpointSink.
func (m *MemStore) SaveRound(st agent.RoundState) error {
	c, err := sealState(m.node, m.peers, st)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.history = append(m.history, c)
	m.mu.Unlock()
	return nil
}

// History returns a copy of every checkpoint saved, in save order.
func (m *MemStore) History() []Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Checkpoint(nil), m.history...)
}

// Latest returns the highest-round checkpoint saved, matching the Store
// resume interface.
func (m *MemStore) Latest() (Checkpoint, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) == 0 {
		return Checkpoint{}, false, nil
	}
	best := m.history[0]
	for _, c := range m.history[1:] {
		if c.Round > best.Round {
			best = c
		}
	}
	return best, true, nil
}
