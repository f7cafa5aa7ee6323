package estimate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestSlabMatchesRateEstimator is the slab kernel's differential
// property: over seeded random histories — varied half-lives, window
// widths, window counts and rates, event-free windows among them, and
// tables too short for some event counts — a slab sensed window by
// window through EvenWindow tables must hold the same bits as
// RateEstimators fed the same events one Observe at a time:
// the same decayed masses and last event times, the same rates at every
// window's end, and the same drift decisions against baselines marked
// along the way.
func TestSlabMatchesRateEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const estimators = 6
	var firstWindows, tableHits, resumed, idle, untabled int
	for trial := 0; trial < 300; trial++ {
		halfLife := math.Exp(rng.Float64()*6 - 1) // ~0.37 … 150
		w := math.Exp(rng.Float64()*5 - 1)        // ~0.37 … 55
		maxRate := rng.Float64() * 3
		windows := 1 + rng.Intn(8)
		threshold := rng.Float64() * 0.5

		slab := NewSlab(estimators)
		ests := make([]*RateEstimator, estimators)
		planned := make([]float64, estimators)
		for i := range ests {
			est, err := NewRateEstimator(halfLife)
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = est
		}
		// A quarter of the histories get a table that misses the
		// largest event counts.
		maxEvents := int(math.Ceil(maxRate*w)) + 1
		if rng.Intn(4) == 0 {
			maxEvents = rng.Intn(maxEvents + 1)
		}
		t0 := 0.0
		for win := 0; win < windows; win++ {
			table, err := NewEvenWindow(halfLife, t0, w, maxEvents)
			if err != nil {
				t.Fatal(err)
			}
			for i, est := range ests {
				// A rate of 0 for a third of the (estimator, window)
				// pairs gives event-free windows, and the windows after
				// them resume from a last event older than t0.
				r := 0.0
				if rng.Intn(3) > 0 {
					r = rng.Float64() * maxRate
				}
				m := int(math.Round(r * w))
				switch {
				case m == 0:
					idle++
				case m > maxEvents:
					untabled++
				case !est.begun:
					firstWindows++
				case est.last == t0:
					tableHits++
				default:
					resumed++
				}
				for k := m - 1; k >= 0; k-- {
					if err := est.Observe(t0 + w - w*float64(k)/float64(m)); err != nil {
						t.Fatal(err)
					}
				}
				slab.SenseRow(i, []float64{r}, table)
				if slab.sum[i] != est.sum || slab.last[i] != est.last {
					t.Fatalf("trial %d window %d estimator %d (m = %d): slab (sum %v, last %v), estimator (sum %v, last %v)",
						trial, win, i, m, slab.sum[i], slab.last[i], est.sum, est.last)
				}
			}
			end := table.End()
			// Read at the window's end and half a window past it, where
			// every estimator's last event is older than the reading.
			later, err := NewReading(halfLife, t0+w+w/2)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range []struct {
				reading Reading
				now     float64
			}{{end, t0 + w}, {later, t0 + w + w/2}} {
				drifted := false
				for i, est := range ests {
					want := est.Rate(at.now)
					if got := slab.rate(i, at.reading); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d window %d estimator %d: slab rate %v at %v, estimator %v",
							trial, win, i, got, at.now, want)
					}
					drifted = drifted || DriftExceeds(planned[i], want, threshold)
				}
				if got := slab.Drifted(0, estimators, at.reading, threshold); got != drifted {
					t.Fatalf("trial %d window %d: slab drifted = %v at %v, estimators %v",
						trial, win, got, at.now, drifted)
				}
			}
			if rng.Intn(2) == 0 {
				slab.MarkPlanned(0, estimators, end)
				for i, est := range ests {
					planned[i] = est.Rate(t0 + w)
					if math.Float64bits(slab.planned[i]) != math.Float64bits(planned[i]) {
						t.Fatalf("trial %d window %d estimator %d: slab baseline %v, estimator %v",
							trial, win, i, slab.planned[i], planned[i])
					}
				}
			}
			t0 += w
		}
	}
	// Every branch of the sensing kernel must have been compared.
	for _, c := range []struct {
		name string
		n    int
	}{
		{"first windows", firstWindows},
		{"table hits", tableHits},
		{"resumed after an idle window", resumed},
		{"idle windows", idle},
		{"event counts beyond the table", untabled},
	} {
		if c.n == 0 {
			t.Errorf("no %s in the random histories", c.name)
		}
	}
}

func TestSlabValidation(t *testing.T) {
	if _, err := NewEvenWindow(0, 0, 1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero half-life: err = %v, want ErrBadParam", err)
	}
	for _, c := range []struct {
		t0, w float64
		max   int
	}{
		{math.NaN(), 1, 4},
		{math.Inf(1), 1, 4},
		{0, 0, 4},
		{0, math.Inf(1), 4},
		{0, math.NaN(), 4},
		{0, 1, -1},
	} {
		if _, err := NewEvenWindow(1, c.t0, c.w, c.max); !errors.Is(err, ErrBadParam) {
			t.Errorf("NewEvenWindow(1, %v, %v, %d): err = %v, want ErrBadParam", c.t0, c.w, c.max, err)
		}
	}
	for _, now := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := NewReading(1, now); !errors.Is(err, ErrBadParam) {
			t.Errorf("NewReading at %v: err = %v, want ErrBadParam", now, err)
		}
	}
	if _, err := NewReading(math.Inf(1), 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("infinite half-life: err = %v, want ErrBadParam", err)
	}
	win, err := NewEvenWindow(1, 0, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.mult) != maxTabledEvents*(maxTabledEvents+1)/2 {
		t.Errorf("a 2^20-event bound built %d multipliers, want the %d-event cap's %d",
			len(win.mult), maxTabledEvents, maxTabledEvents*(maxTabledEvents+1)/2)
	}
}
