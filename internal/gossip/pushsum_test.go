package gossip

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// roundFrames is the frame count of one push-sum round over all of g
// with the derived tick count: every tick each node sends one frame to
// each neighbor.
func roundFrames(t *testing.T, g *topology.Graph) int64 {
	t.Helper()
	tree, err := BuildTree(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	arcs := 0
	for _, nbs := range aliveAdjacency(g, nil) {
		arcs += len(nbs)
	}
	return int64(2*tree.Depth+8) * int64(arcs)
}

// TestPushSumDeterminismPin pins one seeded push-sum run bit for bit:
// the final allocation's bits, the round count and the frame count.
// Each tick every node sends one frame to each neighbor, so Frames
// follows from the schedule alone. A change that moves any of the three
// changes the protocol's behaviour.
func TestPushSumDeterminismPin(t *testing.T) {
	const n = 12
	g, err := topology.RandomConnected(n, 14, 0.1, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Graph:  g,
		Models: testModels(n, rand.New(rand.NewSource(13))),
		Init:   uniformInit(n),
		Mode:   ModeGossip,
		Seed:   5,
		Alpha:  0.1, Epsilon: 5e-3, MaxRounds: 4000,
		KKTTol: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("converged=%v certified=%v", res.Converged, res.Certified)
	}
	h := fnv.New64a()
	for _, x := range res.X {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	const wantHash, wantRounds, wantFrames = 0x81f7f4af0f060f2d, 249, 152000
	if got := h.Sum64(); got != wantHash {
		t.Errorf("hash of X = %#x, want %#x", got, uint64(wantHash))
	}
	if res.Rounds != wantRounds || res.Bill.Frames != wantFrames {
		t.Errorf("rounds=%d frames=%d, want %d and %d", res.Rounds, res.Bill.Frames, wantRounds, wantFrames)
	}
}

// TestCollectTickRejectsMisplacedShare pins the tick exchange's check:
// a neighbor's message carries its push-sum share exactly when the
// neighbor's hashed pick lands on the receiver, and anything else is a
// protocol violation rather than lost or invented mass.
func TestCollectTickRejectsMisplacedShare(t *testing.T) {
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for tick := 0; tick < 4; tick++ {
		net, err := transport.NewMemoryNetwork(3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = net.Close() })
		ep0, err := net.Endpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		ep1, err := net.Endpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		wrong := pickPeer(1, 0, 0, tick, 1, adj[1]) != 0
		payload, err := protocol.EncodeGossipExtrema(protocol.GossipExtrema{
			Tick: tick, Node: 1, BoundOK: true, OutNode: -1, HasShare: wrong, WA: 0.5, WN: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ep1.Send(ctx, 0, payload); err != nil {
			t.Fatal(err)
		}
		p := &pushSum{e: &epoch{cfg: ClusterConfig{Seed: 1}, adj: adj}}
		if _, err := p.collectTick(ctx, &agent.Node{ID: 0, Inbox: agent.NewInbox(ep0)}, 0, tick); !errors.Is(err, ErrProtocol) {
			t.Errorf("tick %d, share=%v: err = %v, want ErrProtocol", tick, wrong, err)
		}
	}
}
