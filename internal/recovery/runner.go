package recovery

import (
	"context"
	"fmt"
	"math"

	"filealloc/internal/agent"
	"filealloc/internal/core"
)

// Resumer is a checkpoint sink that can also produce the latest valid
// checkpoint to resume from; *Store and *MemStore both implement it.
type Resumer interface {
	agent.CheckpointSink
	Latest() (Checkpoint, bool, error)
}

// SupervisedOutcome is an agent outcome plus its restart history.
type SupervisedOutcome struct {
	agent.Outcome
	// Restarts is how many times the supervisor restarted the agent.
	Restarts int
}

// reviver is the optional endpoint capability a restart exercises;
// transport.FaultEndpoint implements it.
type reviver interface{ Revive() }

// RunSupervisedAgent runs one agent under a supervisor: every checkpoint
// lands in store, and when the run dies on a retryable error (by default
// a transport crash) the supervisor waits out a seeded backoff, revives
// the endpoint if it supports it, and re-runs the agent from the latest
// valid checkpoint. Because checkpoints are taken at the top of a round
// before its first send, the resumed run re-broadcasts an identical
// report — discarded by peers as a benign duplicate — and continues the
// uninterrupted trajectory bit for bit.
func RunSupervisedAgent(ctx context.Context, cfg agent.Config, sup SupervisorConfig, store Resumer) (SupervisedOutcome, error) {
	if store == nil {
		return SupervisedOutcome{}, fmt.Errorf("recovery: nil checkpoint store")
	}
	if cfg.Endpoint == nil {
		return SupervisedOutcome{}, fmt.Errorf("recovery: nil endpoint")
	}
	cfg.Checkpoint = store
	obs := cfg.Observer
	if obs == nil {
		obs = agent.NopObserver{}
	}
	id := cfg.Endpoint.ID()

	var out agent.Outcome
	// Messages sent by attempts that died mid-run must still count: the
	// supervised outcome reports cumulative traffic across the whole
	// crash/restart history, monotone like the metrics built on it.
	var priorMessages int
	attempts, err := Supervise(ctx, sup, func(ctx context.Context, attempt int) error {
		run := cfg
		if attempt > 0 {
			if r, ok := cfg.Endpoint.(reviver); ok {
				r.Revive()
			}
			ck, ok, err := store.Latest()
			if err != nil {
				return err // corrupt store: non-retryable, surfaces as-is
			}
			if ok {
				run.Resume = ck.State()
				obs.RecoveryEvent(id, ck.Round, "resume", fmt.Sprintf("restart %d resuming from round-%d checkpoint", attempt, ck.Round))
			} else {
				obs.RecoveryEvent(id, 0, "resume", fmt.Sprintf("restart %d found no checkpoint; starting fresh", attempt))
			}
			obs.RecoveryEvent(id, ck.Round, "restart", fmt.Sprintf("attempt %d", attempt+1))
		}
		o, err := agent.Run(ctx, run)
		if err != nil {
			priorMessages += o.MessagesSent
			obs.RecoveryEvent(id, o.Rounds, "crash", err.Error())
			return err
		}
		o.MessagesSent += priorMessages
		out = o
		return nil
	})
	return SupervisedOutcome{Outcome: out, Restarts: attempts - 1}, err
}

// RejoinInit builds the epoch-2 starting state for a cluster where a
// departed node re-enters: the survivors keep the allocation they
// converged to (renormalized so Σ = 1 holds to within 1 ulp), and the
// rejoiner starts with a zero fragment and climbs back in through
// core.PlanStepInto's active-set re-admission — exactly how the paper's
// mechanism admits a newly attractive site. It returns the initial allocation and
// alive set for the new epoch's run.
func RejoinInit(survivorX []float64, alive []bool, rejoiner int) ([]float64, []bool, error) {
	n := len(survivorX)
	if len(alive) != n {
		return nil, nil, fmt.Errorf("recovery: %d fragments but %d alive entries", n, len(alive))
	}
	if rejoiner < 0 || rejoiner >= n {
		return nil, nil, fmt.Errorf("recovery: rejoiner %d outside cluster of %d", rejoiner, n)
	}
	if alive[rejoiner] {
		return nil, nil, fmt.Errorf("recovery: node %d is not departed", rejoiner)
	}
	x := append([]float64(nil), survivorX...)
	var survivors []int
	for i, a := range alive {
		if a {
			survivors = append(survivors, i)
		}
	}
	var sum float64
	for _, s := range survivors {
		sum += x[s]
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, nil, fmt.Errorf("recovery: survivor allocation sums to %v, not 1", sum)
	}
	// Pin Σ = 1 exactly before handing the allocation to a fresh epoch.
	if err := core.Renormalize(x, survivors); err != nil {
		return nil, nil, fmt.Errorf("recovery: normalizing survivor allocation: %w", err)
	}
	x[rejoiner] = 0
	alive2 := append([]bool(nil), alive...)
	alive2[rejoiner] = true
	return x, alive2, nil
}
