package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10},
		{Start: 5, End: 15},  // overlaps the first
		{Start: 20, End: 40}, // sticks out of [0, 30)
		{Start: 50, End: 60}, // outside
	}
	if got := covered(0, 30, spans, []int32{0, 1, 2, 3}); got != 25 {
		t.Fatalf("covered = %d, want 25", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
