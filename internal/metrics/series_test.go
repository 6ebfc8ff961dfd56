package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/vtime"
)

const ms = vtime.Millisecond

func at(msec int64) vtime.Time { return vtime.Time(msec) * vtime.Time(ms) }

func TestSeriesAt(t *testing.T) {
	s := FromSteps(Point{at(10), 1}, Point{at(20), 3}, Point{at(30), 0})
	cases := []struct {
		t    vtime.Time
		want float64
	}{
		{at(0), 0}, {at(9), 0}, {at(10), 1}, {at(15), 1},
		{at(20), 3}, {at(29), 3}, {at(30), 0}, {at(100), 0},
	}
	for _, c := range cases {
		if got := valueAt(s, c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("value at %v: got %v, want %v", c.t, got, c.want)
		}
	}
}

// valueAt is the series' value at t, read as its average over the next
// millisecond: every probe in these tests sits at least 1ms before the next
// step.
func valueAt(s *Series, t vtime.Time) float64 { return s.Average(t, t.Add(ms)) }

func TestSeriesSetOverwriteAndDedup(t *testing.T) {
	s := &Series{}
	s.Set(at(10), 1)
	s.Set(at(10), 2) // overwrite at same instant
	if got := valueAt(s, at(10)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("overwrite: got %v", got)
	}
	s.Set(at(20), 2) // redundant step must be dropped
	if s.Len() != 1 {
		t.Fatalf("dedup: got %d points", s.Len())
	}
	s.Set(at(30), 5)
	if s.Len() != 2 {
		t.Fatalf("append: got %d points", s.Len())
	}
}

func TestSeriesSetPanicsOnBackwardsTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards Set")
		}
	}()
	s := &Series{}
	s.Set(at(10), 1)
	s.Set(at(5), 2)
}

func TestSeriesIntegral(t *testing.T) {
	// 1.0 over [10ms,20ms), 3.0 over [20ms,30ms), 0 after.
	s := FromSteps(Point{at(10), 1}, Point{at(20), 3}, Point{at(30), 0})
	cases := []struct {
		t0, t1 vtime.Time
		want   float64
	}{
		{at(0), at(40), 0.010*1 + 0.010*3},
		{at(10), at(20), 0.010},
		{at(15), at(25), 0.005 + 0.015},
		{at(0), at(10), 0},
		{at(30), at(100), 0},
		{at(20), at(20), 0},
	}
	for _, c := range cases {
		if got := s.Integral(c.t0, c.t1); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Integral(%v,%v): got %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
}

func TestSeriesIntegralTailPersists(t *testing.T) {
	// Last value persists after the final point.
	s := FromSteps(Point{at(0), 2})
	if got := s.Integral(at(0), at(1000)); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("tail integral: got %v, want 2.0", got)
	}
}

func TestSeriesAverageAndMax(t *testing.T) {
	s := FromSteps(Point{at(0), 1}, Point{at(10), 3}, Point{at(20), 0})
	if got := s.Average(at(0), at(20)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Average: got %v", got)
	}
}

func TestSeriesScaleClone(t *testing.T) {
	s := FromSteps(Point{at(0), 1}, Point{at(10), 2})
	d := s.Scale(2)
	if math.Abs(valueAt(d, at(5))-2) > 1e-12 || math.Abs(valueAt(d, at(15))-4) > 1e-12 {
		t.Fatal("Scale wrong")
	}
	if math.Abs(valueAt(s, at(5))-1) > 1e-12 {
		t.Fatal("Scale mutated source")
	}
	c := s.Clone()
	c.Set(at(20), 9)
	if s.Len() == c.Len() {
		t.Fatal("Clone shares storage")
	}
}

// Property: for any random step function, the integral over [t0,t2) equals
// the sum of integrals over [t0,t1) and [t1,t2).
func TestIntegralAdditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tm := vtime.Time(0)
		for i := 0; i < 20; i++ {
			tm = tm.Add(vtime.Duration(1+rng.Intn(50)) * ms)
			s.Set(tm, float64(rng.Intn(10)))
		}
		end := tm.Add(100 * ms)
		t1 := vtime.Time(rng.Int63n(int64(end)))
		whole := s.Integral(0, end)
		split := s.Integral(0, t1) + s.Integral(t1, end)
		return math.Abs(whole-split) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Average is bounded by [min, max] of the step values over the
// window (with zero included because the series is zero before the first
// point).
func TestAverageBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tm := vtime.Time(0)
		maxV := 0.0
		for i := 0; i < 10; i++ {
			tm = tm.Add(vtime.Duration(1+rng.Intn(20)) * ms)
			v := rng.Float64() * 8
			if v > maxV {
				maxV = v
			}
			s.Set(tm, v)
		}
		avg := s.Average(0, tm.Add(10*ms))
		return avg >= -1e-12 && avg <= maxV+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeErrorIdentity(t *testing.T) {
	s := FromSteps(Point{at(0), 1}, Point{at(50), 4}, Point{at(100), 0})
	if got := RelativeError(s, s, at(0), at(100), 10*ms); got != 0 {
		t.Fatalf("self error: got %v", got)
	}
}

func TestRelativeErrorKnownValue(t *testing.T) {
	// Truth: 2.0 over [0,100ms). Estimate: 1.0 over [0,50ms), 3.0 over [50,100ms).
	truth := FromSteps(Point{at(0), 2}, Point{at(100), 0})
	est := FromSteps(Point{at(0), 1}, Point{at(50), 3}, Point{at(100), 0})
	// Per 10ms window: |1-2|*0.01 for 5 windows + |3-2|*0.01 for 5 → 0.1.
	// Total truth consumption: 2*0.1 = 0.2 → error 0.5.
	if got := RelativeError(est, truth, at(0), at(100), 10*ms); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("known error: got %v, want 0.5", got)
	}
	// With a window as coarse as the whole span, the errors cancel.
	if got := RelativeError(est, truth, at(0), at(100), 100*ms); math.Abs(got) > 1e-12 {
		t.Fatalf("coarse window error: got %v, want 0", got)
	}
}

func TestRelativeErrorZeroTruth(t *testing.T) {
	est := FromSteps(Point{at(0), 1})
	if got := RelativeError(est, &Series{}, at(0), at(100), 10*ms); got != 0 {
		t.Fatalf("zero-truth error: got %v", got)
	}
}
