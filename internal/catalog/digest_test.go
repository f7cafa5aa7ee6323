package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
)

// digestRun drives one catalog lifetime — cold fill, sensing, four
// drift/re-solve epochs — on the given number of sweep workers and
// returns the SHA-256 of the encoded catalog snapshot and of the metrics
// snapshot.
func digestRun(t *testing.T, cfg Config, workers int) (snapSum, metricsSum string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := metrics.New()
	c.AttachMetrics(reg)
	ctx := sweep.WithMetrics(sweep.WithWorkers(context.Background(), workers), reg)
	if _, err := c.SolveCold(ctx); err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		if _, err := c.Drift(ctx); err != nil {
			t.Fatalf("Drift: %v", err)
		}
		if _, err := c.ReSolve(ctx); err != nil {
			t.Fatalf("ReSolve: %v", err)
		}
	}
	snap, err := c.Snapshot().Encode()
	if err != nil {
		t.Fatalf("Snapshot.Encode: %v", err)
	}
	msnap, err := metrics.EncodeJSON(reg.Snapshot())
	if err != nil {
		t.Fatalf("metrics.EncodeJSON: %v", err)
	}
	s, m := sha256.Sum256(snap), sha256.Sum256(msnap)
	return hex.EncodeToString(s[:]), hex.EncodeToString(m[:])
}

// TestCatalogDigests pins the exact bytes of the catalog's state and
// metrics after four epochs, for three sensing regimes. The snapshot
// holds every allocation and the metrics hold every epoch's drifted,
// skipped, warm and fallback counts and the re-solve iteration
// histogram, so a change to how the catalog senses demand, flags drift
// or re-solves shows up here even when it keeps the run deterministic.
//
// A refactor of the catalog must leave every digest unchanged; a
// deliberate change to its output must re-record the digests here and
// say why.
func TestCatalogDigests(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		wantSnap    string
		wantMetrics string
	}{
		{
			// Every sensing and solver setting at its default.
			name:        "default",
			cfg:         Config{Objects: 512, ShardSize: 64, DriftFraction: 0.1, Seed: 3},
			wantSnap:    "ef11ad3a7e37dcce42c9af4584cb9596adec695a9dfbff8a7e75127aaaabca72",
			wantMetrics: "c3722a5e6cbbd0dc0988748976915cde69ec8c313b4fd2b334db13e30f2f8ae8",
		},
		{
			// A short half-life: estimates forget within one window.
			name:        "halflife",
			cfg:         Config{Objects: 300, Nodes: 6, ShardSize: 32, DriftFraction: 0.25, HalfLife: 5, Seed: 7},
			wantSnap:    "051c3b260f114dd453f61139a606ff9bd6476dcc0a339506447a5ad09162078e",
			wantMetrics: "045514a681b629e4d3b6e517a106b6065b9fa05e3437a8b4b1532e2352aebb48",
		},
		{
			// A window of four time units under a steep Zipf shape: cold
			// nodes see no event in some windows and one in others, so
			// estimators decay across event-free windows and resume from
			// a last event older than the window start.
			name:        "sparse",
			cfg:         Config{Objects: 300, ShardSize: 48, Skew: 2, EpochWindow: 4, DriftFraction: 0.3, Seed: 5},
			wantSnap:    "8d6d65700cf922c49627797f06f5a50c05df27a6c5fd692622df9f45b06d71af",
			wantMetrics: "6bafb06c8a3dbb74852c5b8d6fae7a30a0c88411c70ccfd74faa2e757d49008e",
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				snap, msnap := digestRun(t, tc.cfg, workers)
				if snap != tc.wantSnap {
					t.Errorf("snapshot sha256 = %s, want %s", snap, tc.wantSnap)
				}
				if msnap != tc.wantMetrics {
					t.Errorf("metrics sha256 = %s, want %s", msnap, tc.wantMetrics)
				}
			})
		}
	}
}
