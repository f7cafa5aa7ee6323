package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultSpecDigests pins the exact bytes of the built-in default
// spec's three outputs: the JSON report on stdout, the -csv file and the
// -metrics-out snapshot. Every recorded latency is model-derived and the
// re-planner's iterates feed the epochs, lags and iteration counts, so a
// change anywhere on the serving path — routing, the controller's drift
// and membership rules, the re-planner's model or certificate — shows up
// here. The outputs are independent of -workers, so a serial and a
// parallel run must both match. (-hedge races wall-clock timers and is
// covered by TestHedgedServing instead.)
//
// A refactor of the serving plane must leave every digest unchanged; a
// deliberate change to the default run's output must re-record the
// digests here and say why.
func TestDefaultSpecDigests(t *testing.T) {
	const (
		wantReport  = "d76f4a37ec74f148e149eab86b9e502a394b9a899ff9c41d9ea625ef19d3c51e"
		wantCSV     = "5f246fabd52155a1d6e2e7cd2c620bb1cc7024e518b1dfb01ab912cbf860a782"
		wantMetrics = "d513a37aa68faa81aed1613a1017f209a9e10eecd9c5c9a88f1380539034d77e"
	)
	for _, workers := range []string{"1", "4"} {
		t.Run("workers="+workers, func(t *testing.T) {
			dir := t.TempDir()
			csvPath := filepath.Join(dir, "report.csv")
			metricsPath := filepath.Join(dir, "metrics.json")
			var out bytes.Buffer
			if err := run([]string{"-workers", workers, "-csv", csvPath, "-metrics-out", metricsPath}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			csv, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				got  []byte
				want string
			}{
				{"stdout report", out.Bytes(), wantReport},
				{"-csv", csv, wantCSV},
				{"-metrics-out", snap, wantMetrics},
			} {
				sum := sha256.Sum256(c.got)
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("%s sha256 = %s, want %s\noutput:\n%s", c.name, got, c.want, c.got)
				}
			}
		})
	}
}
