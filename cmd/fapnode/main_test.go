package main

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"filealloc/internal/recovery"
)

func TestParseVector(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		n       int
		want    []float64
		wantErr bool
	}{
		{"empty means default", "", 3, nil, false},
		{"good", "0.8,0.1,0.1", 3, []float64{0.8, 0.1, 0.1}, false},
		{"spaces tolerated", " 1 , 2 ", 2, []float64{1, 2}, false},
		{"wrong count", "1,2", 3, nil, true},
		{"not a number", "1,x,3", 3, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseVector(tt.in, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("got %v, want %v", got, tt.want)
					break
				}
			}
		})
	}
}

func TestSplitNonEmpty(t *testing.T) {
	if got := splitNonEmpty(""); got != nil {
		t.Errorf("empty input: %v", got)
	}
	got := splitNonEmpty("a, ,b,,c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("got %v", got)
	}
}

func TestBuildModelTopologies(t *testing.T) {
	rates := []float64{0.25, 0.25, 0.25, 0.25}
	for _, topo := range []string{"ring", "mesh", "star"} {
		m, err := buildModel(topo, 4, 1, rates, 1.5, 1)
		if err != nil {
			t.Errorf("%s: %v", topo, err)
			continue
		}
		if m.Dim() != 4 || m.Lambda() != 1 {
			t.Errorf("%s: dim=%d lambda=%v", topo, m.Dim(), m.Lambda())
		}
	}
	if _, err := buildModel("torus", 4, 1, rates, 1.5, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-addrs", "x"}, &b, nil); err == nil {
		t.Error("single-node cluster accepted")
	}
	if err := run([]string{"-addrs", "a,b", "-id", "7"}, &b, nil); err == nil {
		t.Error("out-of-range id accepted")
	}
	if err := run([]string{"-addrs", "a,b", "-mode", "gossip"}, &b, nil); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-addrs", "a,b", "-init", "1,2,3"}, &b, nil); err == nil {
		t.Error("mismatched -init accepted")
	}
}

func TestRunRecoveryFlagValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-addrs", "a,b", "-mode", "coordinator", "-checkpoint-dir", t.TempDir()}, &b, nil); err == nil {
		t.Error("-checkpoint-dir accepted in coordinator mode")
	}
	if err := run([]string{"-addrs", "a,b", "-mode", "coordinator", "-max-restarts", "2"}, &b, nil); err == nil {
		t.Error("-max-restarts accepted in coordinator mode")
	}
}

// TestRunClusterWithCheckpoints drives a 3-node cluster with supervised
// restart and on-disk checkpointing enabled: every node must converge,
// leave a valid checkpoint history behind, and report its resume state.
func TestRunClusterWithCheckpoints(t *testing.T) {
	addrs := "127.0.0.1:17651,127.0.0.1:17652,127.0.0.1:17653"
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-id", string(rune('0' + i)),
				"-addrs", addrs,
				"-init", "1,0,0",
				"-round-timeout", "10s",
				"-checkpoint-dir", dirs[i],
				"-max-restarts", "2",
			}, &outs[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		var res result
		if err := json.Unmarshal([]byte(outs[i].String()), &res); err != nil {
			t.Fatalf("node %d output %q: %v", i, outs[i].String(), err)
		}
		if !res.Converged || res.Restarts != 0 || res.Resumed != 0 {
			t.Errorf("node %d: converged=%t restarts=%d resumed=%d", i, res.Converged, res.Restarts, res.Resumed)
		}
		store, err := recovery.NewStore(dirs[i], i, 3)
		if err != nil {
			t.Fatal(err)
		}
		ck, ok, err := store.Latest()
		if err != nil || !ok {
			t.Fatalf("node %d: no valid checkpoint left behind (ok=%t err=%v)", i, ok, err)
		}
		if ck.Round == 0 || math.Abs(ck.SumX()-1) > 1e-9 {
			t.Errorf("node %d: latest checkpoint round=%d Σx=%v", i, ck.Round, ck.SumX())
		}
	}
}

// TestRunFullClusterInProcess drives the complete fapnode CLI path for a
// 3-node cluster on loopback ports, one run() per goroutine, and checks
// the negotiated fragments.
func TestRunFullClusterInProcess(t *testing.T) {
	addrs := "127.0.0.1:17641,127.0.0.1:17642,127.0.0.1:17643"
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-id", string(rune('0' + i)),
				"-addrs", addrs,
				"-topology", "ring",
				"-init", "1,0,0",
				"-alpha", "0.3",
				"-round-timeout", "10s",
			}, &outs[i], nil)
		}(i)
	}
	wg.Wait()
	var total float64
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		var res result
		if err := json.Unmarshal([]byte(outs[i].String()), &res); err != nil {
			t.Fatalf("node %d output %q: %v", i, outs[i].String(), err)
		}
		if !res.Converged {
			t.Errorf("node %d did not converge", i)
		}
		if res.Node != i {
			t.Errorf("node %d reported id %d", i, res.Node)
		}
		total += res.Fragment
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("fragments sum to %g, want 1", total)
	}
}
