package estimate

import (
	"fmt"
	"math"
)

// Slab is a bank of n exponential-window rate estimators kept as
// structure of arrays, for callers that hold many estimators sharing one
// half-life: for estimator i, sum[i] is its decayed event mass
// Σ e^(−ω(last − t_k)), last[i] its last event time and planned[i] its
// planning baseline — 24 B each, with no per-estimator heap object. Every
// estimator observes from time 0, as NewRateEstimator's do, and a sum of
// 0 means it has seen no event yet (every event adds 1 to the mass).
//
// A slab is sensed one window at a time through an EvenWindow and read
// through a Reading. Each operation matches, bit for bit, the same
// events fed to a RateEstimator through Observe and read through Rate.
// Distinct estimators may be sensed concurrently; one estimator may not.
type Slab struct {
	sum, last, planned []float64
}

// NewSlab returns a slab of n estimators that have seen no event and
// whose baselines are 0.
func NewSlab(n int) Slab {
	buf := make([]float64, 3*n)
	return Slab{sum: buf[:n:n], last: buf[n : 2*n : 2*n], planned: buf[2*n:]}
}

// EvenWindow is the table for sensing evenly spaced events over one
// window (t0, t0+w]: m events land at t0 + w − w·k/m for k = m−1 … 0,
// the last exactly on the window's end. Every estimator of a slab shares
// ω, the window and, for a given m, the event times, so the table holds,
// for each m up to a bound, the decay multipliers e^(−ω·Δt) from t0 to
// the first event and between consecutive events. Sensing an estimator
// whose last event is t0 then takes m multiply-adds and no exp.
type EvenWindow struct {
	omega, t0, w float64
	tabled       int
	// mult holds, for each m in [1, tabled], a run of m multipliers at
	// offset m(m−1)/2: e^(−ω(t_{m−1} − t0)), then e^(−ω(t_k − t_{k+1}))
	// for k = m−2 … 0.
	mult []float64
}

// maxTabledEvents caps an EvenWindow's table at 32,896 multipliers
// (257 KB). The table grows with the square of the largest event count,
// so an uncapped table for a long window could outgrow the estimators
// it serves.
const maxTabledEvents = 256

// NewEvenWindow builds the table for the window (t0, t0+w] at the given
// half-life, for event counts up to maxEvents or maxTabledEvents,
// whichever is smaller. SenseRow accepts any rate; an event count beyond
// the table costs one exp per event.
func NewEvenWindow(halfLife, t0, w float64, maxEvents int) (*EvenWindow, error) {
	omega, err := omegaFor(halfLife)
	if err != nil {
		return nil, err
	}
	switch {
	case math.IsNaN(t0) || math.IsInf(t0, 0):
		return nil, fmt.Errorf("%w: window start %v", ErrBadParam, t0)
	case !(w > 0) || math.IsInf(w, 0):
		return nil, fmt.Errorf("%w: window width %v", ErrBadParam, w)
	case maxEvents < 0:
		return nil, fmt.Errorf("%w: %d events per window", ErrBadParam, maxEvents)
	}
	tabled := min(maxEvents, maxTabledEvents)
	win := &EvenWindow{omega: omega, t0: t0, w: w, tabled: tabled,
		mult: make([]float64, tabled*(tabled+1)/2)}
	for m := 1; m <= tabled; m++ {
		run := win.run(m)
		prev := t0
		for k := m - 1; k >= 0; k-- {
			t := win.time(m, k)
			run[m-1-k] = math.Exp(-omega * (t - prev))
			prev = t
		}
	}
	return win, nil
}

// time returns the time of event k of m, in the same floating-point
// operations a per-event caller uses.
//
//fap:zeroalloc
func (win *EvenWindow) time(m, k int) float64 {
	return win.t0 + win.w - win.w*float64(k)/float64(m)
}

// run returns m's multipliers.
//
//fap:zeroalloc
func (win *EvenWindow) run(m int) []float64 {
	return win.mult[m*(m-1)/2 : m*(m+1)/2]
}

// End returns the Reading at the window's end, t0 + w.
func (win *EvenWindow) End() Reading { return newReading(win.omega, win.t0+win.w) }

// SenseRow feeds estimators lo, lo+1, … one window of events for the
// rates r of row: m = round(r·w) evenly spaced events each, as m calls
// of RateEstimator.Observe at the window's event times would. The mass
// decays and gains 1 per event in the same order, and the last event
// time becomes t0 + w. The first event's decay comes from the table when
// the estimator's last event is t0, which is what a previous window with
// events leaves; only an estimator that has seen events but none in the
// previous window pays one exp. A rate with m ≤ 0 feeds nothing. One
// call per row, rather than per estimator, keeps the row's bookkeeping
// out of the per-estimator loop.
//
//fap:zeroalloc
func (s Slab) SenseRow(lo int, row []float64, win *EvenWindow) {
	sums, lasts := s.sum[lo:lo+len(row)], s.last[lo:lo+len(row)]
	t0, w, tabled := win.t0, win.w, win.tabled
	// Event k = 0 lands at t0 + w − w·0/m, which is exactly t0 + w.
	end := t0 + w
	for j, r := range row {
		m := int(math.Round(r * w))
		if m <= 0 {
			continue
		}
		if m > tabled {
			s.senseEach(lo+j, m, win)
			continue
		}
		run := win.run(m)
		sum := sums[j]
		switch {
		case sum == 0:
			sum = 1
		case lasts[j] == t0:
			sum = float64(sum*run[0]) + 1
		default:
			sum = float64(sum*math.Exp(-win.omega*(win.time(m, m-1)-lasts[j]))) + 1
		}
		for _, q := range run[1:] {
			sum = float64(sum*q) + 1
		}
		sums[j], lasts[j] = sum, end
	}
}

// senseEach is SenseRow for an event count beyond the table: one exp per
// event, in Observe's arithmetic.
//
//fap:zeroalloc
func (s Slab) senseEach(i, m int, win *EvenWindow) {
	sum, last := s.sum[i], s.last[i]
	for k := m - 1; k >= 0; k-- {
		t := win.time(m, k)
		if sum != 0 {
			sum = float64(sum * math.Exp(-win.omega*(t-last)))
		}
		sum++
		last = t
	}
	s.sum[i], s.last[i] = sum, last
}

// Reading is the per-call part of evaluating a slab's rates at time now:
// ω and the warm-up correction 1 − e^(−ω·now), which every estimator
// observing from time 0 shares.
type Reading struct {
	omega, now, mass float64
}

// NewReading returns the Reading at time now for the given half-life.
func NewReading(halfLife, now float64) (Reading, error) {
	omega, err := omegaFor(halfLife)
	if err != nil {
		return Reading{}, err
	}
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return Reading{}, fmt.Errorf("%w: reading time %v", ErrBadParam, now)
	}
	return newReading(omega, now), nil
}

func newReading(omega, now float64) Reading {
	return Reading{omega: omega, now: now, mass: windowMass(omega, now)}
}

// rate returns estimator i's rate at the reading's time, as
// RateEstimator.Rate does: 0 before any event, and no exp when the last
// event is at the reading's time.
//
//fap:zeroalloc
func (s Slab) rate(i int, at Reading) float64 {
	if s.sum[i] == 0 {
		return 0
	}
	return windowedRate(at.omega, s.sum[i], at.now-s.last[i], at.mass)
}

// MarkPlanned records the rates of estimators [lo, hi) at the reading's
// time as their baselines: the rates a plan computed now assumes, which
// Drifted compares later readings against.
//
//fap:zeroalloc
func (s Slab) MarkPlanned(lo, hi int, at Reading) {
	for i := lo; i < hi; i++ {
		s.planned[i] = s.rate(i, at)
	}
}

// Drifted reports whether any estimator in [lo, hi) has a rate at the
// reading's time that deviates from its baseline by strictly more than
// threshold (per DriftExceeds). The threshold must lie in [0, 1).
//
//fap:zeroalloc
func (s Slab) Drifted(lo, hi int, at Reading, threshold float64) bool {
	for i := lo; i < hi; i++ {
		if DriftExceeds(s.planned[i], s.rate(i, at), threshold) {
			return true
		}
	}
	return false
}
