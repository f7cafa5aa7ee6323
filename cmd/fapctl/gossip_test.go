package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// elapsedRe strips the only nondeterministic token in the gossip report
// so runs can be compared byte for byte.
var elapsedRe = regexp.MustCompile(`elapsed=[^ \n]+`)

func TestGossipCommandBothModes(t *testing.T) {
	var b strings.Builder
	err := run([]string{"gossip", "-n", "16", "-mode", "both",
		"-alpha", "0.3", "-ticks", "40"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"n=16 topology=random",
		"wire=binary",
		"tree: rounds=",
		"gossip: rounds=",
		"message bill",
		"measured", // n=16 ≤ the measurement limit: broadcast row is real
		"fewer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "certified=true") != 2 {
		t.Errorf("want both runs certified:\n%s", out)
	}
}

func TestGossipCommandWorkersByteIdentical(t *testing.T) {
	dir := t.TempDir()
	outputs := make([]string, 2)
	metrics := make([][]byte, 2)
	for i, workers := range []string{"1", "7"} {
		mf := filepath.Join(dir, "m"+workers+".json")
		var b strings.Builder
		err := run([]string{"gossip", "-n", "32", "-alpha", "0.3",
			"-workers", workers, "-metrics-out", mf}, &b)
		if err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, b.String())
		}
		outputs[i] = elapsedRe.ReplaceAllString(b.String(), "elapsed=X")
		raw, err := os.ReadFile(mf)
		if err != nil {
			t.Fatal(err)
		}
		metrics[i] = raw
	}
	if outputs[0] != outputs[1] {
		t.Errorf("report differs across -workers:\n--- workers=1\n%s\n--- workers=7\n%s", outputs[0], outputs[1])
	}
	if string(metrics[0]) != string(metrics[1]) {
		t.Errorf("metrics snapshot differs across -workers")
	}
}

func TestGossipCommandChurn(t *testing.T) {
	var b strings.Builder
	err := run([]string{"gossip", "-n", "16", "-alpha", "0.3", "-churn", "2",
		"-round-timeout", "1s"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "alive=14/16") {
		t.Errorf("want 2 nodes dead:\n%s", out)
	}
	if !strings.Contains(out, "certified=true") {
		t.Errorf("survivors failed to certify:\n%s", out)
	}
	if !strings.Contains(out, "analytic") {
		t.Errorf("churn runs must use the analytic broadcast row:\n%s", out)
	}
}

func TestGossipCommandRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"gossip", "-mode", "telepathy"},
		{"gossip", "-topology", "klein-bottle"},
		{"gossip", "-n", "4", "-churn", "4"},
		{"gossip", "-workers", "0"},
		{"gossip", "-round-timeout", "-1s"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) accepted bad flags", args)
		}
	}
}
