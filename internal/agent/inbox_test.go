package agent

import (
	"context"
	"errors"
	"testing"
	"time"

	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// TestInboxMetersReadAheadAtItsRound crashes a node on its first round-1
// send after it read its peer's round-1 report ahead, during round 0.
// The meter counts a message when the node collects its round, so the
// node that dies meters only the round-0 report: how far a dying node
// happened to read ahead must not show in fap_transport_recvs_total.
func TestInboxMetersReadAheadAtItsRound(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	raw, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	fep, err := transport.NewFaultEndpoint(raw, transport.FaultConfig{
		RoundOf: protocol.RoundOf,
		Rules:   []transport.FaultRule{{Kind: transport.FaultCrash, Direction: transport.DirSend, FromRound: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	// The round-1 report arrives first, so round 0's collection reads it
	// ahead before the round-0 report completes the round.
	for _, r := range []int{1, 0} {
		p := mustEncodeReport(t, protocol.Report{Round: r, Node: 1, Marginal: -1, Alloc: 0.5})
		if err := peer.Send(context.Background(), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Run(context.Background(), Config{
		Endpoint:     transport.NewMeteredEndpoint(fep, reg),
		Model:        LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:         0.5,
		RoundTimeout: 5 * time.Second,
	})
	if !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("error = %v, want ErrCrashed", err)
	}
	snap := reg.Snapshot()
	var recvs int64 = -1
	for _, c := range snap.Counters {
		if c.Name == "fap_transport_recvs_total" {
			recvs = c.Value
		}
	}
	var observed int64
	for _, h := range snap.Histograms {
		if h.Name == "fap_transport_recv_bytes" {
			for _, c := range h.Counts {
				observed += c
			}
		}
	}
	if recvs != 1 || observed != 1 {
		t.Errorf("recvs = %d, recv-bytes observations = %d; want 1 and 1 (the round-0 report only)", recvs, observed)
	}
}

// TestInboxMetersRestoredEarlyReport resumes a node from a checkpoint
// that holds its peer's early report for the resumed round. That report
// was read ahead, and so never counted, before the restart; it counts
// once, at its wire size, when the resumed round collects it.
func TestInboxMetersRestoredEarlyReport(t *testing.T) {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	raw, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	early := protocol.Report{Round: 1, Node: 1, Marginal: -1, Alloc: 0.5}
	_, err = Run(context.Background(), Config{
		Endpoint:     transport.NewMeteredEndpoint(raw, reg),
		Model:        LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		RoundTimeout: 200 * time.Millisecond,
		Resume:       &RoundState{Round: 1, X: 0.5, FullX: []float64{0.5, 0.5}, Early: []protocol.Report{early}},
	})
	// Round 1 completes on the early report; round 2 starves.
	if !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("error = %v, want ErrRoundTimeout", err)
	}
	var recvs, bytes int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "fap_transport_recvs_total" {
			recvs = c.Value
		}
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "fap_transport_recv_bytes" {
			bytes = h.Sum
		}
	}
	if want := int64(len(mustEncodeReport(t, early))); recvs != 1 || bytes != want {
		t.Errorf("recvs = %d, recv bytes = %d; want 1 and %d", recvs, bytes, want)
	}
}
