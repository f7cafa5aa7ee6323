// Package estimate provides the online parameter estimators an adaptive
// deployment of the allocation algorithm needs. The paper's section 8:
// "The performance of such an adaptive scheme, however, would crucially
// depend on the ability of all nodes to accurately estimate the values
// for changing system parameters", i.e. the per-node access rates λ_i and
// service characteristics that enter the marginal utilities.
//
// Two estimators are provided: an exponentially-decayed Poisson rate
// estimator (unbiased for a stationary Poisson process, tracks drifting
// rates with a configurable half-life) and a streaming service-time
// moment estimator (mean and second moment, feeding the M/G/1 model of
// internal/costmodel). Slab keeps many rate estimators that share a
// half-life as structure of arrays and senses them from evenly spaced
// events through a per-window table, bit-identical to the per-event
// estimator and without its per-event exp.
package estimate

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParam reports invalid estimator parameters or observations.
var ErrBadParam = errors.New("estimate: invalid parameter")

// RateEstimator estimates the rate of an event process from event
// timestamps using an exponential window: each event contributes
// ω·e^(−ω·age), so for a Poisson(λ) process the estimate is unbiased with
// standard deviation λ·sqrt(ω/(2λ)). Smaller ω (longer half-life) means
// less noise but slower tracking of drift — the classic adaptation
// trade-off the E12 experiment quantifies.
//
// RateEstimator is not safe for concurrent use; wrap it if estimators are
// shared across goroutines.
type RateEstimator struct {
	omega float64 // decay rate, ln2 / half-life
	sum   float64 // Σ e^(−ω(last − t_i))
	last  float64 // time of the most recent update
	start float64 // observation start, for warm-up bias correction
	begun bool
}

// NewRateEstimator returns an estimator whose window half-life is the
// given duration (in the same time unit as the observations), observing
// from time 0.
func NewRateEstimator(halfLife float64) (*RateEstimator, error) {
	return NewRateEstimatorAt(halfLife, 0)
}

// NewRateEstimatorAt returns an estimator observing from the given start
// time. Knowing the start lets Rate correct the warm-up bias: until a few
// half-lives have elapsed the raw exponential window has only accumulated
// the fraction 1 − e^(−ω·T) of its steady-state mass, so the raw estimate
// under-reports the true rate by exactly that factor.
func NewRateEstimatorAt(halfLife, start float64) (*RateEstimator, error) {
	omega, err := omegaFor(halfLife)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(start) || math.IsInf(start, 0) {
		return nil, fmt.Errorf("%w: start time = %v", ErrBadParam, start)
	}
	return &RateEstimator{omega: omega, start: start, last: start}, nil
}

// omegaFor returns the decay rate ω = ln2 / half-life of an exponential
// window.
func omegaFor(halfLife float64) (float64, error) {
	if halfLife <= 0 || math.IsNaN(halfLife) || math.IsInf(halfLife, 0) {
		return 0, fmt.Errorf("%w: half-life = %v", ErrBadParam, halfLife)
	}
	return math.Ln2 / halfLife, nil
}

// Observe records an event at time t. Observations must be
// non-decreasing in time.
func (e *RateEstimator) Observe(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: event time %v", ErrBadParam, t)
	}
	if e.begun && t < e.last {
		return fmt.Errorf("%w: event time %v before %v", ErrBadParam, t, e.last)
	}
	if e.begun {
		e.sum *= math.Exp(-e.omega * (t - e.last))
	}
	e.sum++
	e.last = t
	e.begun = true
	return nil
}

// Rate returns the (warm-up corrected) rate estimate at time now (≥ the
// last observation). Before any observation it returns 0.
func (e *RateEstimator) Rate(now float64) float64 {
	if !e.begun {
		return 0
	}
	return windowedRate(e.omega, e.sum, now-e.last, windowMass(e.omega, now-e.start))
}

// windowMass returns 1 − e^(−ω·span), the fraction of its steady-state
// mass an exponential window has gathered after observing for span.
//
//fap:zeroalloc
func windowMass(omega, span float64) float64 {
	return 1 - math.Exp(-omega*span)
}

// windowedRate is the exponential-window rate estimate: the event mass
// decayed to the reading time, ω·sum·e^(−ω·age) with a negative age
// taken as 0, divided by the window's gathered mass unless that is still
// ≤ 1e-12. It skips the exp at age 0, where e^(−ω·0) is exactly 1, so
// the estimate has the same bits either way.
//
//fap:zeroalloc
func windowedRate(omega, sum, age, mass float64) float64 {
	if age < 0 {
		age = 0
	}
	raw := omega * sum
	if age != 0 {
		raw *= math.Exp(-omega * age)
	}
	if mass <= 1e-12 {
		return raw
	}
	return raw / mass
}

// ServiceEstimator accumulates streaming estimates of a service-time
// distribution's first two moments, the inputs of the Pollaczek–Khinchine
// delay model.
type ServiceEstimator struct {
	n    int
	sum  float64
	sum2 float64
}

// Observe records one service duration.
func (e *ServiceEstimator) Observe(d float64) error {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("%w: service time %v", ErrBadParam, d)
	}
	e.n++
	e.sum += d
	e.sum2 += d * d
	return nil
}

// Count returns the number of observations.
func (e *ServiceEstimator) Count() int { return e.n }

// Mean returns the estimated E[S] (0 before any observation).
func (e *ServiceEstimator) Mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// SecondMoment returns the estimated E[S²].
func (e *ServiceEstimator) SecondMoment() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum2 / float64(e.n)
}

// Tracker bundles one rate estimator per node, the state an adaptive
// controller keeps.
type Tracker struct {
	nodes []*RateEstimator
}

// NewTracker returns a tracker for n nodes with a common half-life.
func NewTracker(n int, halfLife float64) (*Tracker, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadParam, n)
	}
	tr := &Tracker{nodes: make([]*RateEstimator, n)}
	for i := range tr.nodes {
		est, err := NewRateEstimator(halfLife)
		if err != nil {
			return nil, err
		}
		tr.nodes[i] = est
	}
	return tr, nil
}

// Observe records an access generated by node at time t.
func (tr *Tracker) Observe(node int, t float64) error {
	if node < 0 || node >= len(tr.nodes) {
		return fmt.Errorf("%w: node %d of %d", ErrBadParam, node, len(tr.nodes))
	}
	return tr.nodes[node].Observe(t)
}

// Rates returns the per-node rate estimates at time now.
func (tr *Tracker) Rates(now float64) []float64 {
	out := make([]float64, len(tr.nodes))
	for i, est := range tr.nodes {
		out[i] = est.Rate(now)
	}
	return out
}

// DriftExceeds reports whether estimate deviates from baseline by
// strictly more than threshold, relative to the larger of the two:
//
//	|estimate − baseline| > threshold·max(baseline, estimate)
//
// The symmetric scale keeps the test meaningful at both ends: a rate
// collapsing from r to 0 and one appearing from 0 to r both score a
// relative deviation of 1, and two zero rates never drift. Thresholds
// are only discriminating in [0, 1): for non-negative rates the
// deviation never exceeds the scale, so a threshold ≥ 1 flags nothing.
func DriftExceeds(baseline, estimate, threshold float64) bool {
	scale := math.Max(baseline, estimate)
	return math.Abs(estimate-baseline) > threshold*scale
}
