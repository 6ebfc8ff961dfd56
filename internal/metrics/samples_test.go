package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/vtime"
)

func TestSampleSeriesOf(t *testing.T) {
	s := FromSteps(Point{at(0), 1}, Point{at(10), 3}, Point{at(20), 0})
	ss := SampleSeriesOf(s, at(0), at(30), 10*ms)
	if len(ss.Samples) != 3 {
		t.Fatalf("got %d samples", len(ss.Samples))
	}
	want := []float64{1, 3, 0}
	for i, w := range want {
		if got := ss.Samples[i].Avg; math.Abs(got-w) > 1e-12 {
			t.Errorf("sample %d: got %v, want %v", i, got, w)
		}
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSeriesPartialTail(t *testing.T) {
	s := FromSteps(Point{at(0), 2})
	ss := SampleSeriesOf(s, at(0), at(25), 10*ms)
	if len(ss.Samples) != 3 {
		t.Fatalf("got %d samples", len(ss.Samples))
	}
	last := ss.Samples[2]
	if last.Start != at(20) || last.End != at(25) {
		t.Fatalf("tail sample interval [%v,%v)", last.Start, last.End)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDownsamplePreservesConsumption(t *testing.T) {
	s := FromSteps(Point{at(0), 1}, Point{at(7), 5}, Point{at(31), 2}, Point{at(90), 0})
	ss := SampleSeriesOf(s, at(0), at(100), 5*ms)
	for _, factor := range []int{1, 2, 3, 4, 8, 20, 100} {
		ds := ss.Downsample(factor)
		if err := ds.Validate(); err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}
		if got, want := consumption(ds), consumption(ss); math.Abs(got-want) > 1e-9 {
			t.Errorf("factor %d: consumption %v, want %v", factor, got, want)
		}
	}
}

func TestDownsampleAveraging(t *testing.T) {
	ss := &SampleSeries{Samples: []Sample{
		{at(0), at(10), 1},
		{at(10), at(20), 3},
		{at(20), at(30), 5},
		{at(30), at(40), 7},
	}}
	ds := ss.Downsample(2)
	if len(ds.Samples) != 2 {
		t.Fatalf("got %d samples", len(ds.Samples))
	}
	if ds.Samples[0].Avg != 2 || ds.Samples[1].Avg != 6 {
		t.Fatalf("averages %v, %v", ds.Samples[0].Avg, ds.Samples[1].Avg)
	}
}

func TestToSeriesRoundTrip(t *testing.T) {
	ss := &SampleSeries{Samples: []Sample{
		{at(0), at(10), 1},
		{at(10), at(20), 3},
	}}
	s := ss.ToSeries()
	if math.Abs(valueAt(s, at(5))-1) > 1e-12 || math.Abs(valueAt(s, at(15))-3) > 1e-12 || valueAt(s, at(25)) != 0 {
		t.Fatal("ToSeries values wrong")
	}
	if got := s.Integral(at(0), at(30)); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("ToSeries integral: got %v", got)
	}
}

func TestValidateDetectsGaps(t *testing.T) {
	ss := &SampleSeries{Samples: []Sample{
		{at(0), at(10), 1},
		{at(15), at(20), 3},
	}}
	if ss.Validate() == nil {
		t.Fatal("gap not detected")
	}
	ss2 := &SampleSeries{Samples: []Sample{{at(10), at(10), 1}}}
	if ss2.Validate() == nil {
		t.Fatal("empty interval not detected")
	}
}

// Property: sampling a series and converting back to a step function
// preserves total consumption over the sampled span.
func TestSamplingConservesMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tm := vtime.Time(0)
		for i := 0; i < 15; i++ {
			tm = tm.Add(vtime.Duration(1+rng.Intn(30)) * ms)
			s.Set(tm, rng.Float64()*4)
		}
		end := tm.Add(50 * ms)
		ss := SampleSeriesOf(s, 0, end, 7*ms)
		back := ss.ToSeries()
		a := s.Integral(0, end)
		b := back.Integral(0, end)
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: downsampling by any factor never changes total consumption.
func TestDownsampleConservesMassProperty(t *testing.T) {
	f := func(seed int64, factorRaw uint8) bool {
		factor := int(factorRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tm := vtime.Time(0)
		for i := 0; i < 12; i++ {
			tm = tm.Add(vtime.Duration(1+rng.Intn(40)) * ms)
			s.Set(tm, rng.Float64()*6)
		}
		ss := SampleSeriesOf(s, 0, tm.Add(20*ms), 5*ms)
		ds := ss.Downsample(factor)
		a, b := consumption(ss), consumption(ds)
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// consumption integrates the sampled rates, in value·seconds.
func consumption(ss *SampleSeries) float64 {
	total := 0.0
	for _, s := range ss.Samples {
		total += s.Avg * s.Duration().Seconds()
	}
	return total
}
