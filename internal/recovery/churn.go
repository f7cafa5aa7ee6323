package recovery

import (
	"context"

	"filealloc/internal/agent"
)

// ChurnResult is a cluster result plus each node's supervision record.
type ChurnResult struct {
	agent.ClusterResult
	// Stores holds every node's in-memory checkpoint history — the
	// per-round Σx = 1 evidence.
	Stores []*MemStore
	// Restarts counts each node's supervised restarts.
	Restarts []int
}

// RunChurnCluster runs agent.RunCluster with every node under the
// supervisor sup: checkpoints land in a per-node MemStore, and a node
// that dies on a retryable error (an injected crash, by default) is
// revived and resumed from its latest checkpoint. Each node derives its
// own jitter seed from sup.Seed and its id. With cfg.Agent.Quorum set the
// survivors finish without a node that stays dead.
func RunChurnCluster(ctx context.Context, cfg agent.ClusterConfig, sup SupervisorConfig) (ChurnResult, error) {
	n := len(cfg.Models)
	res := ChurnResult{Stores: make([]*MemStore, n), Restarts: make([]int, n)}
	for i := range res.Stores {
		res.Stores[i] = NewMemStore(i, n)
	}
	cfg.Run = func(ctx context.Context, acfg agent.Config) (agent.Outcome, error) {
		id := acfg.Endpoint.ID()
		node := sup
		node.Seed = sup.Seed*31 + int64(id) + 1
		out, err := RunSupervisedAgent(ctx, acfg, node, res.Stores[id])
		res.Restarts[id] = out.Restarts
		return out.Outcome, err
	}
	var err error
	res.ClusterResult, err = agent.RunCluster(ctx, cfg)
	return res, err
}
