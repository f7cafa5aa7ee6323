package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/recovery"
	"filealloc/internal/topology"
)

// getAccess hits node 0's /access endpoint and decodes the reply.
func getAccess(url string) (accessReply, error) {
	var rep accessReply
	resp, err := http.Get(url)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close() //nolint:errcheck // test fixture
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// TestRunServeModeReplansAndShutsDownGracefully is the serving-mode
// regression: a 3-node cluster converges, node 0 keeps serving /access,
// skewed demand triggers a certified live re-plan (epoch advances), and a
// fake SIGTERM drains the server, flushes a final checkpoint, and closes
// the observability listener.
func TestRunServeModeReplansAndShutsDownGracefully(t *testing.T) {
	addrs := "127.0.0.1:17661,127.0.0.1:17662,127.0.0.1:17663"
	metricsAddr := "127.0.0.1:17660"
	ckptDir := t.TempDir()
	sigc := make(chan os.Signal, 1)

	var wg sync.WaitGroup
	outs := make([]strings.Builder, 3)
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = run([]string{
			"-id", "0", "-addrs", addrs, "-init", "1,0,0",
			"-round-timeout", "10s",
			"-mu", "200", "-v",
			"-metrics-addr", metricsAddr,
			"-checkpoint-dir", ckptDir,
			"-serve",
			"-serve-halflife", "0.2",
			"-replan-interval", "25ms",
		}, &outs[0], sigc)
	}()
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-id", fmt.Sprint(i), "-addrs", addrs, "-init", "1,0,0",
				"-round-timeout", "10s", "-mu", "200",
			}, &outs[i], nil)
		}(i)
	}

	accessURL := "http://" + metricsAddr + "/access?origin=1"
	// Wait for convergence: /access returns 503 until the plan activates.
	var ready bool
	for i := 0; i < 200 && !ready; i++ {
		if _, err := getAccess(accessURL); err == nil {
			ready = true
		} else {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatal("/access never became ready")
	}

	// Hammer origin 1: sensed demand drifts far from the uniform plan the
	// cluster converged for, so the replan loop must adopt a new epoch.
	var epoch int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := getAccess(accessURL)
		if err != nil {
			t.Fatalf("access during serving: %v", err)
		}
		if rep.LatencyMicros <= 0 {
			t.Fatalf("access reply has non-positive latency: %+v", rep)
		}
		epoch = rep.Epoch
		if epoch >= 2 {
			break
		}
		// Throttle so sensed demand stays within the model's capacity;
		// an infeasible re-plan would be rejected, not adopted.
		time.Sleep(5 * time.Millisecond)
	}
	if epoch < 2 {
		t.Fatalf("no live re-plan adopted: still at epoch %d", epoch)
	}

	// Graceful shutdown on a fake SIGTERM.
	sigc <- syscall.SIGTERM
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(outs[0].String()), &res); err != nil {
		t.Fatalf("node 0 output %q: %v", outs[0].String(), err)
	}
	if !res.Converged {
		t.Error("node 0 did not report convergence before serving")
	}

	// The metrics listener must be closed after shutdown.
	if _, err := http.Get("http://" + metricsAddr + "/healthz"); err == nil {
		t.Error("observability listener still accepting connections after shutdown")
	}

	// The final checkpoint must reflect the re-planned allocation: written
	// past the protocol rounds, normalized, and skewed toward node 1.
	store, err := recovery.NewStore(ckptDir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ck, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("no final checkpoint flushed (ok=%t err=%v)", ok, err)
	}
	if ck.Round <= res.Rounds {
		t.Errorf("final checkpoint round %d does not supersede protocol round %d", ck.Round, res.Rounds)
	}
	sum := 0.0
	for _, x := range ck.FullX {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("final checkpoint Σx = %g, want 1", sum)
	}
	if len(ck.FullX) == 3 && ck.FullX[1] < 0.5 {
		t.Errorf("re-planned allocation x = %v does not favor the hot origin 1", ck.FullX)
	}
}

// TestServeReplanSkipsDepartedPeer: after the batch run departs a peer,
// a drift re-plan in serving mode must keep that peer at zero rather
// than hand file mass back to it. Network-free: the access server is
// driven through its handler and replanOnce directly.
func TestServeReplanSkipsDepartedPeer(t *testing.T) {
	const mu, k = 10, 1
	g, err := topology.Ring(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	as, err := newAccessServer(0, 3, g, mu, k, serveOptions{halfLife: 2, interval: time.Second}, metrics.New(), agent.NopObserver{})
	if err != nil {
		t.Fatal(err)
	}
	// Start the serving clock 10 s back: the estimator's warm-up
	// correction has settled, so 30 back-to-back hits read as about 11
	// accesses/s, within the survivors' capacity of 20.
	as.start = as.start.Add(-10 * time.Second)
	ctx := context.Background()
	if err := as.activate(ctx, []float64{0.5, 0.5, 0}, topology.UniformRates(3, 1), []bool{true, true, false}); err != nil {
		t.Fatalf("activate: %v", err)
	}
	for i := 0; i < 30; i++ {
		rec := httptest.NewRecorder()
		as.handleAccess(rec, httptest.NewRequest(http.MethodGet, "/access?origin=1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("access %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	as.replanOnce(ctx)

	plan := as.rp.Plan()
	if plan.Epoch != 2 {
		t.Fatalf("epoch %d after the drift re-plan, want 2", plan.Epoch)
	}
	x := plan.X
	if x[2] != 0 {
		t.Fatalf("departed peer 2 holds %v of the file: x = %v", x[2], x)
	}
	if sum := x[0] + x[1] + x[2]; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σx = %v, want 1 (x = %v)", sum, x)
	}

	// Certify against the reduced model the plan was solved for. The
	// tracker decays every origin by the same factor, so its rates now
	// have the solve's proportions; the plan's Lambda restores the total.
	as.mu.Lock()
	sensed := as.tracker.Rates(as.now())
	as.mu.Unlock()
	total := sensed[0] + sensed[1] + sensed[2]
	rates := make([]float64, 3)
	for i, r := range sensed {
		rates[i] = r * plan.Lambda / total
	}
	access, err := topology.AccessCostsFrom(as.pair, rates)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.NewSingleFile(access[:2], []float64{mu, mu}, plan.Lambda, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.VerifyKKT(x[:2], plan.Q, 1e-2); err != nil {
		t.Fatalf("plan %v fails the KKT certificate: %v", x, err)
	}
}
