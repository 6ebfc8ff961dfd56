package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// Property: for any random set of CPU jobs with arbitrary arrival times,
// demands, and sizes, the integral of recorded utilization times capacity
// equals the total submitted work, and utilization never exceeds 1.
func TestCPUConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		cores := 1 + rng.Float64()*15
		cpu := NewCPU(s, cores)
		total := 0.0
		jobs := 1 + rng.Intn(12)
		for i := 0; i < jobs; i++ {
			work := 0.01 + rng.Float64()
			demand := 0.25 + rng.Float64()*4
			delay := vtime.Duration(rng.Intn(500)) * ms
			total += work
			s.SpawnAt(vtime.Time(delay), "job", func(p *Proc) {
				cpu.Compute(p, demand, work)
			})
		}
		s.Run()
		horizon := s.Now().Add(vtime.Second)
		got := cpu.Util.Integral(0, horizon) * cores
		if math.Abs(got-total) > 1e-6*(1+total) {
			return false
		}
		if peak(&cpu.Util) > 1+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: pausing and resuming a CPU at arbitrary instants never loses or
// creates work.
func TestCPUPauseConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		cpu := NewCPU(s, 2)
		total := 0.0
		for i := 0; i < 4; i++ {
			work := 0.05 + rng.Float64()*0.5
			total += work
			s.Spawn("job", func(p *Proc) { cpu.Compute(p, 1, work) })
		}
		// Random pause windows.
		at := vtime.Duration(10+rng.Intn(100)) * ms
		dur := vtime.Duration(10+rng.Intn(200)) * ms
		s.At(vtime.Time(at), func() { cpu.Pause() })
		s.At(vtime.Time(at+dur), func() { cpu.Resume() })
		s.Run()
		got := cpu.Util.Integral(0, s.Now().Add(vtime.Second)) * 2
		return math.Abs(got-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: all network transfers deliver exactly their byte counts: the
// sum of egress integrals equals total bytes, and egress equals ingress.
func TestNetworkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		n := 2 + rng.Intn(5)
		net := NewNetwork(s, n, 1000+rng.Float64()*1e6)
		total := 0.0
		flows := 1 + rng.Intn(15)
		for i := 0; i < flows; i++ {
			from := rng.Intn(n)
			to := rng.Intn(n)
			if from == to {
				continue
			}
			bytes := 10 + rng.Float64()*1e5
			total += bytes
			delay := vtime.Duration(rng.Intn(300)) * ms
			s.SpawnAt(vtime.Time(delay), "tx", func(p *Proc) {
				net.Transfer(p, from, to, bytes)
			})
		}
		s.Run()
		horizon := s.Now().Add(vtime.Second)
		eg, in := 0.0, 0.0
		for m := 0; m < n; m++ {
			eg += net.EgressUtil(m).Integral(0, horizon)
			in += net.IngressUtil(m).Integral(0, horizon)
		}
		// Egress and ingress are fractions of the same symmetric bandwidth,
		// so their integrals must match exactly.
		return math.Abs(eg-in) < 1e-6*(1+eg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue never exceeds capacity and delivers every byte put.
func TestQueueConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		capacity := 50 + rng.Float64()*200
		q := NewQueue(s, capacity)
		producers := 1 + rng.Intn(4)
		var produced float64
		var amounts []float64
		for i := 0; i < producers; i++ {
			for j := 0; j < 1+rng.Intn(6); j++ {
				a := 1 + rng.Float64()*capacity/2
				amounts = append(amounts, a)
				produced += a
			}
		}
		per := (len(amounts) + producers - 1) / producers
		done := NewBarrier(producers + 1)
		for i := 0; i < producers; i++ {
			lo, hi := i*per, (i+1)*per
			if lo > len(amounts) {
				lo = len(amounts)
			}
			if hi > len(amounts) {
				hi = len(amounts)
			}
			mine := amounts[lo:hi]
			s.Spawn("prod", func(p *Proc) {
				for _, a := range mine {
					p.Sleep(vtime.Duration(rng.Intn(5)) * ms)
					q.Put(p, a)
				}
				done.Wait(p)
			})
		}
		s.Spawn("closer", func(p *Proc) {
			done.Wait(p)
			q.Close()
		})
		var consumed float64
		s.Spawn("cons", func(p *Proc) {
			for {
				got, _ := q.Get(p, 20+rng.Float64()*50)
				if got == 0 {
					return
				}
				consumed += got
				p.Sleep(vtime.Duration(rng.Intn(7)) * ms)
			}
		})
		s.Run()
		if math.Abs(consumed-produced) > 1e-9*(1+produced) {
			return false
		}
		// Occupancy never exceeded capacity.
		for _, pt := range q.Occupancy.Points {
			if pt.V > capacity+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGateCloseReopens(t *testing.T) {
	s := NewScheduler()
	g := &Gate{}
	var passes []vtime.Time
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			p.Sleep(vtime.Duration(i*100) * ms)
			g.Wait(p)
			passes = append(passes, p.Now())
		})
	}
	s.At(vtime.Time(50*ms), func() { g.Open() })
	s.At(vtime.Time(60*ms), func() { g.Close() })
	s.At(vtime.Time(150*ms), func() { g.Open() })
	s.Run()
	if len(passes) != 2 {
		t.Fatalf("passes = %v", passes)
	}
	if passes[0] != vtime.Time(50*ms) {
		t.Fatalf("first pass at %v", passes[0])
	}
	// Second waiter arrived at 100ms with the gate closed; passed at 150ms.
	if passes[1] != vtime.Time(150*ms) {
		t.Fatalf("second pass at %v", passes[1])
	}
	if !g.open {
		t.Fatal("gate should be open")
	}
}

// peak returns the largest value the step series takes.
func peak(s *metrics.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.V)
	}
	return m
}
