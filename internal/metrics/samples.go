package metrics

import (
	"fmt"

	"grade10/internal/vtime"
)

// Sample is one monitoring record: the average rate of consumption of a
// resource over the interval [Start, End). This matches the paper's
// monitoring semantics ("each resource consumption measurement represents the
// average rate of consumption since the previous measurement").
type Sample struct {
	Start vtime.Time
	End   vtime.Time
	Avg   float64
}

// Duration returns the length of the measurement interval.
func (s Sample) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// SampleSeries is an ordered sequence of contiguous monitoring samples for a
// single resource instance.
type SampleSeries struct {
	Samples []Sample
}

// SampleSeriesOf collects monitoring records from a ground-truth series over
// [t0, t1) at the given sampling interval. The final sample may be shorter if
// the span is not a multiple of the interval.
func SampleSeriesOf(src *Series, t0, t1 vtime.Time, interval vtime.Duration) *SampleSeries {
	if interval <= 0 {
		panic("metrics: sampling interval must be positive")
	}
	ss := &SampleSeries{}
	for w0 := t0; w0 < t1; w0 = w0.Add(interval) {
		w1 := vtime.Min(w0.Add(interval), t1)
		ss.Samples = append(ss.Samples, Sample{Start: w0, End: w1, Avg: src.Average(w0, w1)})
	}
	return ss
}

// Downsample merges every `factor` consecutive samples into one, averaging
// with time weights. It reproduces how the paper prepares coarse-grained
// resource traces from 50 ms ground truth ("averaging up to 64 consecutive
// measurements"). A trailing partial group is merged as-is.
func (ss *SampleSeries) Downsample(factor int) *SampleSeries {
	if factor <= 0 {
		panic("metrics: downsample factor must be positive")
	}
	if factor == 1 {
		out := &SampleSeries{Samples: make([]Sample, len(ss.Samples))}
		copy(out.Samples, ss.Samples)
		return out
	}
	out := &SampleSeries{}
	for i := 0; i < len(ss.Samples); i += factor {
		j := i + factor
		if j > len(ss.Samples) {
			j = len(ss.Samples)
		}
		group := ss.Samples[i:j]
		start, end := group[0].Start, group[len(group)-1].End
		integral := 0.0
		for _, s := range group {
			integral += s.Avg * s.Duration().Seconds()
		}
		avg := 0.0
		if end > start {
			avg = integral / end.Sub(start).Seconds()
		}
		out.Samples = append(out.Samples, Sample{Start: start, End: end, Avg: avg})
	}
	return out
}

// ToSeries converts the sample sequence to a step function that holds each
// sample's average over its interval. This is the "constant" strawman
// reconstruction from the paper's Table II.
func (ss *SampleSeries) ToSeries() *Series {
	s := &Series{}
	for _, smp := range ss.Samples {
		s.Set(smp.Start, smp.Avg)
	}
	if n := len(ss.Samples); n > 0 {
		s.Set(ss.Samples[n-1].End, 0)
	}
	return s
}

// Validate checks that samples are contiguous and well-formed.
func (ss *SampleSeries) Validate() error {
	for i, s := range ss.Samples {
		if s.End <= s.Start {
			return fmt.Errorf("sample %d: empty or inverted interval [%v, %v)", i, s.Start, s.End)
		}
		if i > 0 && s.Start != ss.Samples[i-1].End {
			return fmt.Errorf("sample %d: gap or overlap: starts at %v, previous ends at %v",
				i, s.Start, ss.Samples[i-1].End)
		}
	}
	return nil
}
