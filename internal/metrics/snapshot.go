package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Snapshot is a point-in-time, deep copy of a registry's contents, sorted
// by (name, canonical labels) within each section. Two registries that
// recorded the same events snapshot to deeply equal values and encode to
// byte-identical JSON and Prometheus text, regardless of goroutine
// scheduling — this is the struct the determinism tests pin.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Counts has one
// entry per bound plus a final +Inf overflow bucket; entries are
// per-bucket (not cumulative — the text encoder accumulates).
type HistogramPoint struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
}

// Snapshot deep-copies the registry's current contents.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var snap Snapshot
	for _, name := range names {
		fam := r.families[name]
		keys := make([]string, 0, len(fam.series))
		for k := range fam.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := fam.series[k]
			labels := append([]Label(nil), s.labels...)
			s.mu.Lock()
			switch fam.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, CounterPoint{
					Name: name, Help: fam.help, Labels: labels, Value: s.intVal,
				})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, GaugePoint{
					Name: name, Help: fam.help, Labels: labels, Value: s.fVal,
				})
			case kindHistogram:
				snap.Histograms = append(snap.Histograms, HistogramPoint{
					Name: name, Help: fam.help, Labels: labels,
					Bounds: append([]int64(nil), fam.bounds...),
					Counts: append([]int64(nil), s.counts...),
					Sum:    s.sum,
				})
			}
			s.mu.Unlock()
		}
	}
	r.mu.Unlock()
	return snap
}

// EncodeJSON renders a snapshot as indented JSON with a trailing newline.
// The encoding is deterministic: struct field order is fixed and the
// snapshot itself is sorted.
func EncodeJSON(s Snapshot) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: encoding snapshot: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteSnapshot writes reg's snapshot, encoded by EncodeJSON, to the file
// at path, or to w when path is "-". A nil registry writes nothing. This
// is the -metrics-out writer of the commands.
func WriteSnapshot(reg *Registry, path string, w io.Writer) error {
	if reg == nil {
		return nil
	}
	b, err := EncodeJSON(reg.Snapshot())
	if err != nil {
		return fmt.Errorf("encoding metrics snapshot: %w", err)
	}
	if path == "-" {
		_, err := w.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot parses and validates snapshot JSON produced by
// EncodeJSON. It is strict — unknown fields, malformed names or labels,
// out-of-order or duplicate series, negative counts, and histogram
// shape mismatches are all errors. Corrupt or truncated input yields an
// error, never a panic (fuzzed by FuzzSnapshotDecode).
func DecodeSnapshot(data []byte) (Snapshot, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: decoding snapshot: %w", err)
	}
	// Exactly one JSON value, nothing trailing.
	if dec.More() {
		return Snapshot{}, fmt.Errorf("metrics: decoding snapshot: trailing data after JSON value")
	}
	if err := validateSnapshot(s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: invalid snapshot: %w", err)
	}
	normalizeSnapshot(&s)
	return s, nil
}

// normalizeSnapshot maps empty slices to nil so that decoded snapshots
// compare equal to re-decoded ones: the omitempty JSON tags drop empty
// sections and label lists on encode, which would otherwise turn
// []Label{} into nil across a round trip.
func normalizeSnapshot(s *Snapshot) {
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	for i := range s.Counters {
		if len(s.Counters[i].Labels) == 0 {
			s.Counters[i].Labels = nil
		}
	}
	for i := range s.Gauges {
		if len(s.Gauges[i].Labels) == 0 {
			s.Gauges[i].Labels = nil
		}
	}
	for i := range s.Histograms {
		if len(s.Histograms[i].Labels) == 0 {
			s.Histograms[i].Labels = nil
		}
	}
}

// validateSnapshot checks the structural invariants Snapshot() guarantees.
func validateSnapshot(s Snapshot) error {
	seen := make(map[string]string) // name -> section
	var prevKey string
	check := func(section, name string, labels []Label, first bool) (string, error) {
		if err := checkName(name); err != nil {
			return "", err
		}
		canon, sorted, err := canonicalLabels(labels)
		if err != nil {
			return "", fmt.Errorf("%s %s: %w", section, name, err)
		}
		for i := range labels {
			if labels[i] != sorted[i] {
				return "", fmt.Errorf("%s %s: labels not sorted by key", section, name)
			}
		}
		if sec, ok := seen[name]; ok && sec != section {
			return "", fmt.Errorf("name %s appears in both %s and %s sections", name, sec, section)
		}
		seen[name] = section
		key := name + "{" + canon + "}"
		if !first && key <= prevKey {
			return "", fmt.Errorf("%s series %s out of order or duplicated", section, key)
		}
		prevKey = key
		return key, nil
	}
	for i, c := range s.Counters {
		if _, err := check("counter", c.Name, c.Labels, i == 0); err != nil {
			return err
		}
		if c.Value < 0 {
			return fmt.Errorf("counter %s has negative value %d", c.Name, c.Value)
		}
	}
	for i, g := range s.Gauges {
		if _, err := check("gauge", g.Name, g.Labels, i == 0); err != nil {
			return err
		}
	}
	for i, h := range s.Histograms {
		if _, err := check("histogram", h.Name, h.Labels, i == 0); err != nil {
			return err
		}
		if len(h.Bounds) == 0 {
			return fmt.Errorf("histogram %s has no bucket bounds", h.Name)
		}
		for j := 1; j < len(h.Bounds); j++ {
			if h.Bounds[j] <= h.Bounds[j-1] {
				return fmt.Errorf("histogram %s bounds not strictly ascending", h.Name)
			}
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %s has %d counts for %d bounds (want %d)",
				h.Name, len(h.Counts), len(h.Bounds), len(h.Bounds)+1)
		}
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("histogram %s has negative bucket count %d", h.Name, c)
			}
		}
	}
	return nil
}
