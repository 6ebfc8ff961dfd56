package cluster

import (
	"testing"

	"grade10/internal/metrics"
	"grade10/internal/sim"
	"grade10/internal/vtime"
)

func TestNoiseGeneratesBackgroundLoad(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 2, MachineSpec{Cores: 4, NetBandwidth: 1e6})
	n := StartNoise(c, 7, 0.5)
	// Stop after one virtual second; noise processes exit at their next
	// cycle boundary.
	s.At(vtime.Time(vtime.Second), func() { n.Stop() })
	s.Run()
	for m := 0; m < 2; m++ {
		truth, err := c.GroundTruth(m, ResCPU)
		if err != nil {
			t.Fatal(err)
		}
		burned := truth.Integral(0, vtime.Time(2*vtime.Second))
		if burned <= 0 {
			t.Fatalf("machine %d: no noise load", m)
		}
		// Bounded by amplitude × time (plus slack for the final burst).
		if burned > 0.5*2.5 {
			t.Fatalf("machine %d: noise %v exceeds amplitude bound", m, burned)
		}
		if peak := seriesPeak(truth); peak > 0.5+1e-9 {
			t.Fatalf("machine %d: noise peak %v above amplitude", m, peak)
		}
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) float64 {
		s := sim.NewScheduler()
		c := New(s, 1, MachineSpec{Cores: 4, NetBandwidth: 1e6})
		n := StartNoise(c, seed, 0.5)
		s.At(vtime.Time(500*vtime.Millisecond), func() { n.Stop() })
		s.Run()
		truth, _ := c.GroundTruth(0, ResCPU)
		return truth.Integral(0, vtime.Time(vtime.Second))
	}
	if run(1) != run(1) {
		t.Fatal("same seed differs")
	}
	if run(1) == run(2) {
		t.Fatal("different seeds identical")
	}
}

func TestNoiseDisabled(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 1, MachineSpec{Cores: 4, NetBandwidth: 1e6})
	n := StartNoise(c, 1, 0)
	s.Run() // nothing scheduled: returns immediately
	n.Stop()
	truth, _ := c.GroundTruth(0, ResCPU)
	if truth.Integral(0, vtime.Time(vtime.Second)) != 0 {
		t.Fatal("disabled noise burned CPU")
	}
}

func TestMonitorErrorPropagation(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 1, MachineSpec{Cores: 1, NetBandwidth: 1})
	// Negative interval panics inside metrics; Monitor with a valid span but
	// zero machines is impossible, so check the panic path indirectly via a
	// zero interval.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero interval")
		}
	}()
	_, _ = Monitor(c, 0, vtime.Time(vtime.Second), 0)
}

// seriesPeak returns the largest value the step series takes.
func seriesPeak(s *metrics.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.V)
	}
	return m
}
