package sim

import (
	"math"
	"testing"

	"grade10/internal/vtime"
)

func TestNetworkSingleFlow(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, 2, 100) // 100 B/s
	var end vtime.Time
	s.Spawn("tx", func(p *Proc) {
		net.Transfer(p, 0, 1, 50)
		end = p.Now()
	})
	s.Run()
	approxTime(t, end, 0.5, 1e-6)
}

func TestNetworkLocalTransferFree(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, 2, 100)
	s.Spawn("tx", func(p *Proc) {
		net.Transfer(p, 1, 1, 1e9)
		if p.Now() != 0 {
			t.Errorf("local transfer took %v", p.Now())
		}
	})
	s.Run()
}

func TestNetworkEgressSharing(t *testing.T) {
	// Two flows from machine 0 to machines 1 and 2: each gets half the
	// egress bandwidth.
	s := NewScheduler()
	net := NewNetwork(s, 3, 100)
	ends := make([]vtime.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("tx", func(p *Proc) {
			net.Transfer(p, 0, i+1, 100)
			ends[i] = p.Now()
		})
	}
	s.Run()
	approxTime(t, ends[0], 2.0, 1e-6)
	approxTime(t, ends[1], 2.0, 1e-6)
	if u := net.EgressUtil(0).Average(0, vtime.Time(2*vtime.Second)); math.Abs(u-1.0) > 1e-6 {
		t.Fatalf("egress util %v", u)
	}
}

func TestNetworkIngressBottleneck(t *testing.T) {
	// Flows 0→2 and 1→2 share machine 2's ingress.
	s := NewScheduler()
	net := NewNetwork(s, 3, 100)
	var end vtime.Time
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("tx", func(p *Proc) {
			net.Transfer(p, i, 2, 100)
			end = p.Now()
		})
	}
	s.Run()
	approxTime(t, end, 2.0, 1e-6)
	if u := net.IngressUtil(2).Average(0, vtime.Time(2*vtime.Second)); math.Abs(u-1.0) > 1e-6 {
		t.Fatalf("ingress util %v", u)
	}
}

func TestNetworkFlowCompletionReleasesBandwidth(t *testing.T) {
	// Short flow and long flow share egress; after the short one finishes the
	// long one speeds up: 50B at 50B/s (1s) then 50B at 100B/s (0.5s) = 1.5s.
	s := NewScheduler()
	net := NewNetwork(s, 3, 100)
	var endShort, endLong vtime.Time
	s.Spawn("short", func(p *Proc) {
		net.Transfer(p, 0, 1, 50)
		endShort = p.Now()
	})
	s.Spawn("long", func(p *Proc) {
		net.Transfer(p, 0, 2, 100)
		endLong = p.Now()
	})
	s.Run()
	approxTime(t, endShort, 1.0, 1e-6)
	approxTime(t, endLong, 1.5, 1e-6)
}

func TestNetworkMassConservation(t *testing.T) {
	// Integral of egress utilization × capacity over all machines equals
	// total bytes sent remotely.
	s := NewScheduler()
	net := NewNetwork(s, 4, 1000)
	totals := 0.0
	sizes := []float64{300, 1200, 50, 800, 444}
	routes := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	for i := range sizes {
		sz, r := sizes[i], routes[i]
		totals += sz
		s.SpawnAt(vtime.Time(vtime.Duration(i)*50*ms), "tx", func(p *Proc) {
			net.Transfer(p, r[0], r[1], sz)
		})
	}
	s.Run()
	sent := 0.0
	horizon := s.Now().Add(vtime.Second)
	for m := 0; m < 4; m++ {
		sent += net.EgressUtil(m).Integral(0, horizon) * 1000
	}
	if math.Abs(sent-totals) > 1e-3 {
		t.Fatalf("egress integral %v bytes, want %v", sent, totals)
	}
}
