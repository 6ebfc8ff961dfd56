package sim

import (
	"testing"

	"grade10/internal/vtime"
)

const ms = vtime.Millisecond

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(vtime.Time(20*ms), func() { order = append(order, 2) })
	s.At(vtime.Time(10*ms), func() { order = append(order, 1) })
	s.At(vtime.Time(30*ms), func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != vtime.Time(30*ms) {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestSchedulerSameTimeFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(vtime.Time(10*ms), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time order = %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(vtime.Time(10*ms), func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(vtime.Time(10*ms), func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(vtime.Time(5*ms), func() {})
}

func TestProcSleep(t *testing.T) {
	s := NewScheduler()
	var wake vtime.Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(25 * ms)
		wake = p.Now()
	})
	s.Run()
	if wake != vtime.Time(25*ms) {
		t.Fatalf("woke at %v", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10 * ms)
		order = append(order, "a1")
		p.Sleep(20 * ms)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15 * ms)
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	s := NewScheduler()
	var started vtime.Time
	s.SpawnAt(vtime.Time(40*ms), "late", func(p *Proc) { started = p.Now() })
	s.Run()
	if started != vtime.Time(40*ms) {
		t.Fatalf("started at %v", started)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewScheduler()
	g := &Gate{}
	s.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []vtime.Time {
		s := NewScheduler()
		cpu := NewCPU(s, 2)
		var ends []vtime.Time
		for i := 0; i < 4; i++ {
			work := float64(i+1) * 0.010
			s.Spawn("w", func(p *Proc) {
				cpu.Compute(p, 1, work)
				ends = append(ends, p.Now())
			})
		}
		s.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}
