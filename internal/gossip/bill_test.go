package gossip

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"filealloc/internal/metrics"
	"filealloc/internal/topology"
)

// TestTreeBillPin pins one tree-mode solve on BenchmarkGossipRound's
// instance bit for bit: the final allocation's bits, the round and
// epoch counts, the wire bill and the run's metrics snapshot. The
// snapshot digest holds the registry to the gossip_* families, so a
// harness that meters its endpoints into the caller's registry fails
// here.
func TestTreeBillPin(t *testing.T) {
	const n = 64
	g, err := topology.RandomConnected(n, 2*n, 0.1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	res, err := RunCluster(context.Background(), ClusterConfig{
		Graph:   g,
		Models:  testModels(n, rand.New(rand.NewSource(42))),
		Init:    uniformInit(n),
		Alpha:   0.3,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("converged=%v certified=%v", res.Converged, res.Certified)
	}
	h := fnv.New64a()
	for _, x := range res.X {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	if got, want := h.Sum64(), uint64(0xd1960b9614a3aa59); got != want {
		t.Errorf("hash of X = %#x, want %#x", got, want)
	}
	if res.Rounds != 88 || res.Epochs != 1 {
		t.Errorf("rounds=%d epochs=%d, want 88 and 1", res.Rounds, res.Epochs)
	}
	b := res.Bill
	if b.Messages != 53550 || b.Frames != 53550 || b.Bytes != 3722544 {
		t.Errorf("bill: %d messages, %d frames, %d bytes; want 53550, 53550, 3722544", b.Messages, b.Frames, b.Bytes)
	}
	snap, err := metrics.EncodeJSON(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got, want := hex.EncodeToString(sum[:]), "7258b52c0d7ec1d478b68cd093be2d43e0aaf4d8b297693036a3c53380760d6b"; got != want {
		t.Errorf("metrics snapshot SHA-256 = %s, want %s\n%s", got, want, snap)
	}
}
