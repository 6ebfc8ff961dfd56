package cluster

import (
	"math"
	"testing"

	"grade10/internal/sim"
	"grade10/internal/vtime"
)

const ms = vtime.Millisecond

func TestClusterGroundTruthCPU(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 2, MachineSpec{Cores: 4, NetBandwidth: 1e6})
	s.Spawn("job", func(p *sim.Proc) {
		c.CPUs[0].Compute(p, 2, 1.0) // 2 cores for 0.5s
	})
	s.Run()
	truth, err := c.GroundTruth(0, ResCPU)
	if err != nil {
		t.Fatal(err)
	}
	// Absolute units: 2 cores used during [0, 0.5s).
	if got := truth.Average(vtime.Time(250*ms), vtime.Time(251*ms)); math.Abs(got-2) > 1e-9 {
		t.Fatalf("cpu truth %v, want 2 cores", got)
	}
	idle, err := c.GroundTruth(1, ResCPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := idle.Integral(0, vtime.Time(vtime.Second)); got != 0 {
		t.Fatalf("idle machine consumed %v", got)
	}
}

func TestClusterGroundTruthNetwork(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 2, MachineSpec{Cores: 1, NetBandwidth: 1000})
	s.Spawn("tx", func(p *sim.Proc) {
		c.Net.Transfer(p, 0, 1, 500) // 0.5s at full bandwidth
	})
	s.Run()
	out, _ := c.GroundTruth(0, ResNetOut)
	in, _ := c.GroundTruth(1, ResNetIn)
	if got := out.Average(vtime.Time(250*ms), vtime.Time(251*ms)); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("egress truth %v", got)
	}
	if got := in.Integral(0, vtime.Time(vtime.Second)); math.Abs(got-500) > 1e-6 {
		t.Fatalf("ingress integral %v bytes", got)
	}
}

func TestMonitorSamplesMatchGroundTruthAverages(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 2, MachineSpec{Cores: 4, NetBandwidth: 1e6})
	s.Spawn("job", func(p *sim.Proc) {
		c.CPUs[0].Compute(p, 4, 4*0.075) // 4 cores for 75ms
		p.Sleep(25 * ms)
		c.CPUs[0].Compute(p, 1, 0.050) // 1 core for 50ms
	})
	s.Run()
	recs, err := Monitor(c, 0, vtime.Time(200*ms), 50*ms)
	if err != nil {
		t.Fatal(err)
	}
	// 2 machines × 3 resources.
	if len(recs) != 6 {
		t.Fatalf("%d records", len(recs))
	}
	var cpu0 *ResourceSamples
	for i := range recs {
		if recs[i].Machine == 0 && recs[i].Resource == ResCPU {
			cpu0 = &recs[i]
		}
		if err := recs[i].Samples.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if cpu0 == nil {
		t.Fatal("missing cpu record for machine 0")
	}
	if cpu0.Capacity != 4 {
		t.Fatalf("capacity %v", cpu0.Capacity)
	}
	got := cpu0.Samples.Samples
	if len(got) != 4 {
		t.Fatalf("%d samples", len(got))
	}
	// [0,50): 4 cores. [50,100): 4 cores for 25ms then idle 25ms → 2.
	// [100,150): 1 core. [150,200): 0.
	want := []float64{4, 2, 1, 0}
	for i := range want {
		if math.Abs(got[i].Avg-want[i]) > 1e-9 {
			t.Fatalf("sample %d = %v, want %v", i, got[i].Avg, want[i])
		}
	}
}

func TestClusterErrors(t *testing.T) {
	s := sim.NewScheduler()
	c := New(s, 1, MachineSpec{Cores: 1, NetBandwidth: 1})
	if _, err := c.GroundTruth(5, ResCPU); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	if _, err := c.GroundTruth(0, "disk"); err == nil {
		t.Fatal("unknown resource accepted")
	}
	if _, err := c.Capacity("disk"); err == nil {
		t.Fatal("unknown capacity accepted")
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.NewScheduler()
	for _, fn := range []func(){
		func() { New(s, 0, MachineSpec{Cores: 1, NetBandwidth: 1}) },
		func() { New(s, 1, MachineSpec{Cores: 0, NetBandwidth: 1}) },
		func() { New(s, 1, MachineSpec{Cores: 1, NetBandwidth: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
