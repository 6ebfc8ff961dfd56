// Package metrics provides piecewise-constant time series over virtual time.
//
// Series is the shared currency between the simulation substrate and the
// Grade10 analyzer: resource meters in the simulator record utilization as a
// step function, the monitoring agent averages that step function over
// sampling intervals (producing Samples, the Ganglia-style records the paper
// assumes), and the analyzer's upsampling quality is measured by comparing a
// reconstructed step function against the ground-truth Series.
package metrics

import (
	"fmt"
	"sort"

	"grade10/internal/vtime"
)

// Point is one step of a piecewise-constant series: the series holds value V
// from instant T until the next point.
type Point struct {
	T vtime.Time
	V float64
}

// Series is a piecewise-constant (step) function of virtual time.
// Before the first point the value is zero. After the last point the value of
// the last point persists. Points must be appended in non-decreasing time
// order; setting a value at the same instant as the last point overwrites it.
//
// The zero value is an empty series ready for use.
type Series struct {
	// Points are the recorded steps in increasing T order. Readers must not
	// modify them; Set is the only writer.
	Points []Point
}

// NewSeries returns an empty series with room for capacity steps, for
// callers that know how many points they are about to Set (e.g. attribution
// emitting one step per timeslice) and want to avoid append growth.
func NewSeries(capacity int) *Series {
	if capacity < 0 {
		capacity = 0
	}
	return &Series{Points: make([]Point, 0, capacity)}
}

// Set appends a step: the series takes value v from instant t onward.
// Set panics if t precedes the last recorded instant, since meters only move
// forward in virtual time.
func (s *Series) Set(t vtime.Time, v float64) {
	n := len(s.Points)
	if n > 0 {
		last := s.Points[n-1]
		if t < last.T {
			panic(fmt.Sprintf("metrics: Set at %v before last point %v", t, last.T))
		}
		if t == last.T {
			s.Points[n-1].V = v
			return
		}
		if last.V == v {
			return // no-op step; keep the series minimal
		}
	} else if v == 0 {
		return // leading zero is implicit
	}
	s.Points = append(s.Points, Point{t, v})
}

// Len returns the number of recorded steps.
func (s *Series) Len() int { return len(s.Points) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	c := &Series{Points: make([]Point, len(s.Points))}
	copy(c.Points, s.Points)
	return c
}

// Integral returns the integral of the series over [t0, t1), in value·seconds.
func (s *Series) Integral(t0, t1 vtime.Time) float64 {
	if t1 <= t0 || len(s.Points) == 0 {
		return 0
	}
	total := 0.0
	// First segment potentially overlapping [t0, t1).
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t0 }) - 1
	if i < 0 {
		i = 0
	}
	for ; i < len(s.Points); i++ {
		segStart := s.Points[i].T
		segEnd := vtime.Infinity
		if i+1 < len(s.Points) {
			segEnd = s.Points[i+1].T
		}
		lo := vtime.Max(segStart, t0)
		hi := vtime.Min(segEnd, t1)
		if hi > lo {
			total += s.Points[i].V * hi.Sub(lo).Seconds()
		}
		if segEnd >= t1 {
			break
		}
	}
	return total
}

// Average returns the time-weighted mean value of the series over [t0, t1).
func (s *Series) Average(t0, t1 vtime.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return s.Integral(t0, t1) / t1.Sub(t0).Seconds()
}

// Scale returns a new series with every value multiplied by f.
func (s *Series) Scale(f float64) *Series {
	c := s.Clone()
	for i := range c.Points {
		c.Points[i].V *= f
	}
	return c
}

// FromSteps builds a series from explicit steps; a convenience for tests and
// for reconstructing upsampled traces.
func FromSteps(pts ...Point) *Series {
	s := &Series{}
	for _, p := range pts {
		s.Set(p.T, p.V)
	}
	return s
}

// RelativeError compares series a against ground truth b over [t0, t1) at the
// given comparison window: it integrates both over every window, sums the
// absolute differences, and expresses the sum as a fraction of the total
// consumption of the ground truth. This is the "relative sampling error" used
// by the paper's Table II.
//
// It returns 0 when the ground truth has zero total consumption.
func RelativeError(a, b *Series, t0, t1 vtime.Time, window vtime.Duration) float64 {
	if window <= 0 {
		panic("metrics: RelativeError requires a positive window")
	}
	absDiff := 0.0
	total := 0.0
	for w0 := t0; w0 < t1; w0 = w0.Add(window) {
		w1 := vtime.Min(w0.Add(window), t1)
		ia := a.Integral(w0, w1)
		ib := b.Integral(w0, w1)
		d := ia - ib
		if d < 0 {
			d = -d
		}
		absDiff += d
		total += ib
	}
	if total == 0 {
		return 0
	}
	return absDiff / total
}
