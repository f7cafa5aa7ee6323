package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"filealloc/internal/agent"
	"filealloc/internal/catalog"
	"filealloc/internal/recovery"
)

func TestRunMemoryBroadcast(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "4"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"transport=memory",
		"converged=true",
		"max |distributed − centralized| = 0",
		"cost=2.800000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTCPCoordinator(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-tcp", "-mode", "coordinator"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "transport=tcp") || !strings.Contains(out, "mode=coordinator") {
		t.Errorf("output wrong:\n%s", out)
	}
	if !strings.Contains(out, "max |distributed − centralized| = 0") {
		t.Errorf("TCP cluster diverged from central solver:\n%s", out)
	}
}

func TestRunMeshTopology(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "6", "-topology", "mesh"}, &b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(b.String(), "topology=mesh") {
		t.Errorf("output wrong:\n%s", b.String())
	}
}

// writeTestCheckpoints populates a store with two rounds and returns its
// directory.
func writeTestCheckpoints(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := recovery.NewStore(dir, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.4, 0.3, 0.3, 0}
	alive := []bool{true, true, true, false}
	for round := 3; round <= 4; round++ {
		if err := store.SaveRound(agent.RoundState{Round: round, X: xs[1], FullX: xs, Alive: alive, Planned: 0x7}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCheckpointSubcommandInspectsFileAndDir(t *testing.T) {
	dir := writeTestCheckpoints(t)

	var b strings.Builder
	if err := run([]string{"checkpoint", dir}, &b); err != nil {
		t.Fatalf("checkpoint dir: %v", err)
	}
	var rep checkpointReport
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", b.String(), err)
	}
	if rep.Round != 4 || rep.Node != 1 || rep.Peers != 4 || rep.X != 0.3 {
		t.Errorf("report = %+v, want round 4 of node 1/4 with x=0.3", rep)
	}
	if rep.SumX != 1 || len(rep.Support) != 3 || rep.Planned != "0x7" {
		t.Errorf("report = %+v, want Σx=1, 3-node support, planned 0x7", rep)
	}

	// A single file is inspected directly.
	b.Reset()
	if err := run([]string{"checkpoint", rep.File}, &b); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	if !strings.Contains(b.String(), `"round": 4`) {
		t.Errorf("file output wrong:\n%s", b.String())
	}
}

func TestCheckpointSubcommandSkipsCorruptNewest(t *testing.T) {
	dir := writeTestCheckpoints(t)
	// Corrupt the newest file: the subcommand must fall back to round 3
	// and report the skip.
	newest := filepath.Join(dir, "ckpt-000000004.json")
	if err := os.WriteFile(newest, []byte("{ torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"checkpoint", dir}, &b); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var rep checkpointReport
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Round != 3 || rep.SkippedInvalid != 1 {
		t.Errorf("report = %+v, want round 3 with 1 skipped file", rep)
	}
}

func TestCheckpointSubcommandFailsLoudly(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"checkpoint"}, &b); err == nil {
		t.Error("missing path accepted")
	}
	if err := run([]string{"checkpoint", filepath.Join(t.TempDir(), "absent")}, &b); err == nil {
		t.Error("nonexistent path accepted")
	}
	if err := run([]string{"checkpoint", t.TempDir()}, &b); err == nil {
		t.Error("empty directory accepted")
	}
	// A directory whose every checkpoint is corrupt is an error, not a
	// silent empty report.
	dir := writeTestCheckpoints(t)
	for _, name := range []string{"ckpt-000000003.json", "ckpt-000000004.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"checkpoint", dir}, &b); err == nil {
		t.Error("all-corrupt directory accepted")
	}
	// A corrupt single file is an error too.
	bad := filepath.Join(t.TempDir(), "ckpt-000000001.json")
	if err := os.WriteFile(bad, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"checkpoint", bad}, &b); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestRunValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "gossip"}, &b); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-topology", "torus"}, &b); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-n", "1"}, &b); err == nil {
		t.Error("single-node cluster accepted")
	}
}

// writeTestSnapshot cold-solves a small catalog and writes its snapshot,
// returning the file path and the snapshot for cross-checking.
func writeTestSnapshot(t *testing.T) (string, catalog.Snapshot) {
	t.Helper()
	cat, err := catalog.New(catalog.Config{Objects: 24, Nodes: 5, ShardSize: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.SolveCold(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := cat.Snapshot()
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

func TestPlacementsSubcommandSummaryAndQuery(t *testing.T) {
	path, snap := writeTestSnapshot(t)

	// Bare snapshot: one-line summary.
	var b strings.Builder
	if err := run([]string{"placements", path}, &b); err != nil {
		t.Fatalf("placements summary: %v", err)
	}
	if !strings.Contains(b.String(), "24 objects × 5 nodes") {
		t.Errorf("summary wrong:\n%s", b.String())
	}

	// Object query: a table sorted largest share first.
	b.Reset()
	if err := run([]string{"placements", path, "0", "17"}, &b); err != nil {
		t.Fatalf("placements query: %v", err)
	}
	out := b.String()
	for _, want := range []string{"object 0:", "object 17:", "node", "share", "demand"} {
		if !strings.Contains(out, want) {
			t.Errorf("query output missing %q:\n%s", want, out)
		}
	}

	// JSON query round-trips and matches the library answer.
	b.Reset()
	if err := run([]string{"placements", "-json", path, "3"}, &b); err != nil {
		t.Fatalf("placements -json: %v", err)
	}
	var rep []struct {
		Object     int                 `json:"object"`
		Placements []catalog.Placement `json:"placements"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", b.String(), err)
	}
	want, err := snap.Placements(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 1 || rep[0].Object != 3 || !reflect.DeepEqual(rep[0].Placements, want) {
		t.Errorf("JSON report = %+v, want object 3 with %+v", rep, want)
	}
}

func TestPlacementsSubcommandFailsLoudly(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	var b strings.Builder
	if err := run([]string{"placements"}, &b); err == nil {
		t.Error("missing snapshot path accepted")
	}
	if err := run([]string{"placements", filepath.Join(t.TempDir(), "absent.json")}, &b); err == nil {
		t.Error("nonexistent snapshot accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"placements", bad}, &b); err == nil {
		t.Error("wrong-schema snapshot accepted")
	}
	if err := run([]string{"placements", path, "seven"}, &b); err == nil {
		t.Error("non-integer object id accepted")
	}
	if err := run([]string{"placements", path, "24"}, &b); err == nil {
		t.Error("out-of-range object id accepted")
	}
}
