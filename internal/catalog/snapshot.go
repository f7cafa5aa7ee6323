package catalog

import (
	"encoding/json"
	"fmt"
	"sort"
)

// SnapshotSchema identifies the catalog snapshot JSON format.
const SnapshotSchema = "filealloc-catalog/1"

// Snapshot is a self-contained, serializable picture of a solved
// catalog: every object's allocation and true demand, row-major with
// Nodes entries per object. It is what `fapsim catalog -snapshot-out`
// writes and `fapctl placements` queries.
type Snapshot struct {
	Schema  string    `json:"schema"`
	Objects int       `json:"objects"`
	Nodes   int       `json:"nodes"`
	Shards  int       `json:"shards"`
	Epoch   int       `json:"epoch"`
	Skew    float64   `json:"skew"`
	Lambda  float64   `json:"lambda"`
	X       []float64 `json:"x"`
	Demand  []float64 `json:"demand"`
}

// Snapshot captures the catalog's current state.
func (c *Catalog) Snapshot() Snapshot {
	nodes := c.cfg.Nodes
	s := Snapshot{
		Schema:  SnapshotSchema,
		Objects: c.cfg.Objects,
		Nodes:   nodes,
		Shards:  len(c.shards),
		Epoch:   c.epoch,
		Skew:    c.cfg.Skew,
		Lambda:  c.cfg.Lambda,
		X:       make([]float64, c.cfg.Objects*nodes),
		Demand:  make([]float64, c.cfg.Objects*nodes),
	}
	for _, sh := range c.shards {
		copy(s.X[sh.lo*nodes:sh.hi*nodes], sh.x)
		for o := 0; o < sh.count(); o++ {
			id := sh.lo + o
			c.fillDemand(id, sh.gen[o], s.Demand[id*nodes:(id+1)*nodes])
		}
	}
	return s
}

// Encode serializes the snapshot as JSON.
func (s Snapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses and validates a catalog snapshot.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("catalog: decoding snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return Snapshot{}, fmt.Errorf("%w: snapshot schema %q, want %q", ErrCatalog, s.Schema, SnapshotSchema)
	}
	if s.Objects < 1 || s.Nodes < 1 {
		return Snapshot{}, fmt.Errorf("%w: snapshot has %d objects × %d nodes", ErrCatalog, s.Objects, s.Nodes)
	}
	if len(s.X) != s.Objects*s.Nodes || len(s.Demand) != s.Objects*s.Nodes {
		return Snapshot{}, fmt.Errorf("%w: snapshot rows have %d/%d entries, want %d",
			ErrCatalog, len(s.X), len(s.Demand), s.Objects*s.Nodes)
	}
	return s, nil
}

// Placement is one node's share of an object, paired with that node's
// demand rate for it.
type Placement struct {
	Node   int     `json:"node"`
	Share  float64 `json:"share"`
	Demand float64 `json:"demand"`
}

// Placements returns object id's non-zero placements, largest share
// first (ties broken by node index, so the order is deterministic).
func (s Snapshot) Placements(id int) ([]Placement, error) {
	if id < 0 || id >= s.Objects {
		return nil, fmt.Errorf("%w: object %d of %d", ErrCatalog, id, s.Objects)
	}
	row := s.X[id*s.Nodes : (id+1)*s.Nodes]
	demand := s.Demand[id*s.Nodes : (id+1)*s.Nodes]
	out := make([]Placement, 0, s.Nodes)
	for j, share := range row {
		if share > 0 {
			out = append(out, Placement{Node: j, Share: share, Demand: demand[j]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Share != out[b].Share {
			return out[a].Share > out[b].Share
		}
		return out[a].Node < out[b].Node
	})
	return out, nil
}
