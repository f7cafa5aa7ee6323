package agent

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// byzantineScenario runs one honest agent (node 0 of a 2-node cluster)
// against a scripted peer that sends the given payloads, and returns the
// agent's error. obs may be nil.
func byzantineScenario(t *testing.T, mode Mode, coordinatorID int, obs Observer, payloads ...[]byte) error {
	t.Helper()
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	honest, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := peer.Send(context.Background(), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Run(context.Background(), Config{
		Endpoint:      honest,
		Model:         LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:          0.5,
		Mode:          mode,
		CoordinatorID: coordinatorID,
		RoundTimeout:  500 * time.Millisecond,
		Observer:      obs,
	})
	return err
}

func mustEncodeReport(t *testing.T, r protocol.Report) []byte {
	t.Helper()
	b, err := protocol.EncodeReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAgentRejectsSpoofedSender(t *testing.T) {
	// Node 1 sends a report claiming to be node 0.
	err := byzantineScenario(t, Broadcast, 0, nil,
		mustEncodeReport(t, protocol.Report{Round: 0, Node: 0, Marginal: -1, Alloc: 0.5}))
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("error = %v, want ErrProtocol", err)
	}
}

func TestAgentDiscardsStaleReport(t *testing.T) {
	// A stale (past-round) report is benign fallout of retries and
	// duplicating links: it is discarded and counted, and the starved
	// round then fails loudly with a timeout rather than a violation.
	obs := &CounterObserver{}
	err := byzantineScenario(t, Broadcast, 0, obs,
		mustEncodeReport(t, protocol.Report{Round: -1, Node: 1, Marginal: -1, Alloc: 0.5}))
	if !errors.Is(err, ErrRoundTimeout) {
		t.Errorf("error = %v, want ErrRoundTimeout", err)
	}
	c := obs.Counters()
	if c.DiscardsByReason["stale report"] != 1 {
		t.Errorf("discards = %+v, want one stale report", c.DiscardsByReason)
	}
	if c.TimeoutsFired != 1 {
		t.Errorf("TimeoutsFired = %d, want 1", c.TimeoutsFired)
	}
}

func TestAgentRejectsGarbagePayload(t *testing.T) {
	err := byzantineScenario(t, Broadcast, 0, nil, []byte("{{{{"))
	if !errors.Is(err, protocol.ErrBadMessage) {
		t.Errorf("error = %v, want ErrBadMessage", err)
	}
}

func TestAgentRejectsWrongKindDuringCollection(t *testing.T) {
	// An Update arriving while collecting Reports in broadcast mode.
	upd, err := protocol.EncodeUpdate(protocol.Update{Round: 0, Delta: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := byzantineScenario(t, Broadcast, 0, nil, upd); !errors.Is(err, ErrProtocol) {
		t.Errorf("error = %v, want ErrProtocol", err)
	}
}

func TestWorkerRejectsWrongRoundUpdate(t *testing.T) {
	// Worker (node 0, coordinator is node 1) receives an update for the
	// wrong round.
	upd, err := protocol.EncodeUpdate(protocol.Update{Round: 7, Delta: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := byzantineScenario(t, Coordinator, 1, nil, upd); !errors.Is(err, ErrProtocol) {
		t.Errorf("error = %v, want ErrProtocol", err)
	}
}

func TestWorkerRejectsReportWhileAwaitingUpdate(t *testing.T) {
	rep := mustEncodeReport(t, protocol.Report{Round: 0, Node: 1, Marginal: -1, Alloc: 0.5})
	if err := byzantineScenario(t, Coordinator, 1, nil, rep); !errors.Is(err, ErrProtocol) {
		t.Errorf("error = %v, want ErrProtocol", err)
	}
}

func TestWorkerRejectsShortDeltaVector(t *testing.T) {
	// Update whose delta vector is too short for this node id... node 0
	// needs Delta[0], so send an empty delta.
	upd, err := protocol.EncodeUpdate(protocol.Update{Round: 0, Delta: nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := byzantineScenario(t, Coordinator, 1, nil, upd); !errors.Is(err, ErrProtocol) {
		t.Errorf("error = %v, want ErrProtocol", err)
	}
}

func TestAgentDiscardsIdenticalDuplicateReport(t *testing.T) {
	// Two identical copies of a round-1 report arrive while the agent is
	// still collecting round 0: the first is buffered ahead, the second
	// is discarded as a duplicate. Round 0 stays short one report, so
	// the run ends in a loud timeout — never an abort, never a hang.
	obs := &CounterObserver{}
	rep := protocol.Report{Round: 1, Node: 1, Marginal: -1, Alloc: 0.5}
	err := byzantineScenario(t, Broadcast, 0, obs,
		mustEncodeReport(t, rep), mustEncodeReport(t, rep))
	if !errors.Is(err, ErrRoundTimeout) {
		t.Errorf("error = %v, want ErrRoundTimeout", err)
	}
	if c := obs.Counters(); c.DiscardsByReason["duplicate report"] != 1 {
		t.Errorf("discards = %+v, want one duplicate report", c.DiscardsByReason)
	}
}

func TestAgentRejectsConflictingDuplicateReport(t *testing.T) {
	// Same (round, node) with different content is a real violation: a
	// faulty or byzantine peer, not a transport artifact.
	err := byzantineScenario(t, Broadcast, 0, nil,
		mustEncodeReport(t, protocol.Report{Round: 1, Node: 1, Marginal: -1, Alloc: 0.5}),
		mustEncodeReport(t, protocol.Report{Round: 1, Node: 1, Marginal: -2, Alloc: 0.5}))
	if !errors.Is(err, protocol.ErrBadMessage) {
		t.Errorf("error = %v, want ErrBadMessage", err)
	}
}

func TestWorkerDiscardsStaleUpdate(t *testing.T) {
	// A re-delivered update for an earlier round is skipped; the worker
	// then times out waiting for its real round-0 update.
	obs := &CounterObserver{}
	upd, err := protocol.EncodeUpdate(protocol.Update{Round: -1, Delta: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	err = byzantineScenario(t, Coordinator, 1, obs, upd)
	if !errors.Is(err, ErrRoundTimeout) {
		t.Errorf("error = %v, want ErrRoundTimeout", err)
	}
	if c := obs.Counters(); c.DiscardsByReason["stale update"] != 1 {
		t.Errorf("discards = %+v, want one stale update", c.DiscardsByReason)
	}
}

// earlySink is a CheckpointSink that records every early report it is
// asked to save.
type earlySink struct {
	mu    sync.Mutex
	early []protocol.Report
}

func (s *earlySink) SaveRound(st RoundState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.early = append(s.early, st.Early...)
	return nil
}

// TestAgentRejectsNaNReportOverTCP sends a hand-built Report carrying a
// NaN marginal from a raw TCP peer, ahead of the round it belongs to.
// Accepted, it would sit in the round buffer as an early report and then
// be checkpointed, which JSON cannot encode; the wire codec must reject
// it first, so the run fails with ErrBadMessage and no checkpoint ever
// holds an early report.
func TestAgentRejectsNaNReportOverTCP(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	ep, err := transport.ListenTCP(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Node 1's endpoint only absorbs the agent's own round-0 broadcast;
	// node 1's reports come from the raw connection below.
	peer, err := transport.ListenTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := ep.SetPeerAddr(1, peer.Addr()); err != nil {
		t.Fatal(err)
	}

	const marker = -1.25
	nan := mustEncodeReport(t, protocol.Report{Round: 1, Node: 1, Marginal: marker, Alloc: 0.5})
	le := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	if bytes.Count(nan, le(marker)) != 1 {
		t.Fatal("marker value not found once in the encoded report")
	}
	nan = bytes.Replace(nan, le(marker), le(math.NaN()), 1)
	var stream []byte
	for _, p := range [][]byte{nan, mustEncodeReport(t, protocol.Report{Round: 0, Node: 1, Marginal: -1, Alloc: 0.5})} {
		stream = append(stream, 0xFD) // the TCP frame: [0xFD][uvarint len][uvarint from][payload]
		stream = binary.AppendUvarint(stream, uint64(1+len(p)))
		stream = append(append(stream, 1), p...)
	}
	raw, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}

	sink := &earlySink{}
	_, err = Run(context.Background(), Config{
		Endpoint:     ep,
		Model:        LocalModel{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1},
		Init:         0.5,
		RoundTimeout: 5 * time.Second,
		Checkpoint:   sink,
	})
	if !errors.Is(err, protocol.ErrBadMessage) {
		t.Fatalf("error = %v, want ErrBadMessage", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.early) != 0 {
		t.Errorf("checkpointed early reports %+v, want none", sink.early)
	}
}
