package recovery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"filealloc/internal/transport"
)

// ErrRestartBudget reports a supervised run that kept crashing until its
// restart budget ran out; the last underlying error is wrapped alongside.
var ErrRestartBudget = errors.New("recovery: restart budget exhausted")

// Clock abstracts the supervisor's only time dependency — waiting out a
// backoff — so tests drive restarts with a fake clock and the package
// never reads wall-clock time into a decision path.
type Clock interface {
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// TimerClock is the production Clock, backed by a timer.
type TimerClock struct{}

// Sleep implements Clock.
func (TimerClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SupervisorConfig tunes the restart policy.
type SupervisorConfig struct {
	// MaxRestarts bounds how many times a crashed run is restarted
	// (default 3); a negative value forbids restarts entirely, modeling
	// a permanently dead process. The run is attempted at most
	// MaxRestarts+1 times.
	MaxRestarts int
	// BackoffBase is the delay before the first restart (default 10ms);
	// it doubles per consecutive restart up to BackoffCap (default 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter stream; a given (seed, crash
	// sequence) replays the identical delays.
	Seed int64
	// Clock injects the wait primitive (default TimerClock).
	Clock Clock
}

func (c *SupervisorConfig) fill() {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.Clock == nil {
		c.Clock = TimerClock{}
	}
}

// backoff returns the wait before restart number `restart` (1-based):
// capped exponential growth from BackoffBase with seeded jitter in
// [d/2, d], so simultaneously-crashed nodes restart staggered but
// reproducibly.
func backoff(c SupervisorConfig, rng *rand.Rand, restart int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < restart && d < c.BackoffCap; i++ {
		d *= 2
	}
	if d > c.BackoffCap {
		d = c.BackoffCap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Supervise runs `run` until it succeeds, fails with anything but an
// injected or real endpoint crash (transport.ErrCrashed), or the restart
// budget is exhausted. run receives the attempt number (0 for the
// first run, k for the k-th restart). It returns the number of attempts
// made and the final error; a budget exhaustion wraps both
// ErrRestartBudget and the last run error.
func Supervise(ctx context.Context, cfg SupervisorConfig, run func(ctx context.Context, attempt int) error) (attempts int, err error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for attempt := 0; ; attempt++ {
		err = run(ctx, attempt)
		attempts = attempt + 1
		if err == nil || !errors.Is(err, transport.ErrCrashed) || ctx.Err() != nil {
			return attempts, err
		}
		if attempt >= cfg.MaxRestarts {
			return attempts, fmt.Errorf("%w: %d restarts did not recover: %w", ErrRestartBudget, cfg.MaxRestarts, err)
		}
		if werr := cfg.Clock.Sleep(ctx, backoff(cfg, rng, attempt+1)); werr != nil {
			return attempts, fmt.Errorf("recovery: backoff interrupted: %w", werr)
		}
	}
}
