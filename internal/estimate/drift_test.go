package estimate

import "testing"

// TestDriftExceedsBoundaries pins the comparison at exact threshold
// boundaries: the deviation must be strictly greater than
// threshold·max(baseline, estimate) to count as drift.
func TestDriftExceedsBoundaries(t *testing.T) {
	tests := []struct {
		name               string
		baseline, estimate float64
		threshold          float64
		want               bool
	}{
		// baseline 1 → estimate 2: deviation 1, scale 2, ratio exactly 0.5.
		{"exactly at threshold", 1, 2, 0.5, false},
		{"just below threshold", 1, 2, 0.5000001, false},
		{"just above threshold", 1, 2, 0.4999999, true},
		// Symmetric: collapsing 2 → 1 scores the same ratio.
		{"collapse at threshold", 2, 1, 0.5, false},
		{"collapse above threshold", 2, 1, 0.25, true},
		// A rate appearing from zero has relative deviation exactly 1,
		// so every threshold below 1 flags it.
		{"from zero, high threshold", 0, 0.001, 0.999, true},
		{"to zero", 5, 0, 0.999, true},
		// Two dead nodes never drift, even at threshold 0.
		{"both zero", 0, 0, 0, false},
		// Threshold 0 flags any difference but not equality.
		{"zero threshold equal", 3, 3, 0, false},
		{"zero threshold differs", 3, 3.0000001, 0, true},
	}
	for _, tt := range tests {
		if got := DriftExceeds(tt.baseline, tt.estimate, tt.threshold); got != tt.want {
			t.Errorf("%s: DriftExceeds(%v, %v, %v) = %v, want %v",
				tt.name, tt.baseline, tt.estimate, tt.threshold, got, tt.want)
		}
	}
}
