package sim

import (
	"math"
	"testing"

	"grade10/internal/vtime"
)

func TestBarrierReleasesTogether(t *testing.T) {
	s := NewScheduler()
	b := NewBarrier(3)
	var releases []vtime.Time
	var waits []vtime.Duration
	for i := 0; i < 3; i++ {
		delay := vtime.Duration(i) * 100 * ms
		s.Spawn("w", func(p *Proc) {
			p.Sleep(delay)
			w := b.Wait(p)
			waits = append(waits, w)
			releases = append(releases, p.Now())
		})
	}
	s.Run()
	for _, r := range releases {
		if r != vtime.Time(200*ms) {
			t.Fatalf("releases = %v", releases)
		}
	}
	// Last arrival (after 200ms) waits zero; first waits 200ms.
	var maxWait vtime.Duration
	for _, w := range waits {
		if w > maxWait {
			maxWait = w
		}
	}
	if maxWait != 200*ms {
		t.Fatalf("max wait %v", maxWait)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	s := NewScheduler()
	b := NewBarrier(2)
	rounds := make([][]vtime.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			for r := 0; r < 2; r++ {
				p.Sleep(vtime.Duration(i+1) * 50 * ms)
				b.Wait(p)
				rounds[r] = append(rounds[r], p.Now())
			}
		})
	}
	s.Run()
	if rounds[0][0] != vtime.Time(100*ms) || rounds[0][1] != vtime.Time(100*ms) {
		t.Fatalf("round 0: %v", rounds[0])
	}
	if rounds[1][0] != vtime.Time(200*ms) || rounds[1][1] != vtime.Time(200*ms) {
		t.Fatalf("round 1: %v", rounds[1])
	}
}

func TestGate(t *testing.T) {
	s := NewScheduler()
	g := &Gate{}
	var passed vtime.Time
	var blocked vtime.Duration
	s.Spawn("waiter", func(p *Proc) {
		blocked = g.Wait(p)
		passed = p.Now()
	})
	s.At(vtime.Time(75*ms), func() { g.Open() })
	s.Run()
	if passed != vtime.Time(75*ms) || blocked != 75*ms {
		t.Fatalf("passed %v blocked %v", passed, blocked)
	}
	// Once open, waits return immediately.
	s2 := NewScheduler()
	s2.Spawn("fast", func(p *Proc) {
		if g.Wait(p) != 0 {
			t.Error("open gate blocked")
		}
	})
	s2.Run()
}

func TestQueueBasicPutGet(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 100)
	var got float64
	s.Spawn("producer", func(p *Proc) {
		q.Put(p, 30)
		q.Put(p, 20)
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			n, _ := q.Get(p, 1000)
			if n == 0 {
				return
			}
			got += n
		}
	})
	s.Run()
	if got != 50 {
		t.Fatalf("consumed %v", got)
	}
}

func TestQueueProducerBlocksWhenFull(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 100)
	var blocked vtime.Duration
	s.Spawn("producer", func(p *Proc) {
		q.Put(p, 100) // fills the queue
		blocked = q.Put(p, 50)
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(200 * ms)
		for {
			n, _ := q.Get(p, 60)
			if n == 0 {
				return
			}
		}
	})
	s.Run()
	if blocked != 200*ms {
		t.Fatalf("producer blocked %v, want 200ms", blocked)
	}
}

func TestQueueConsumerBlocksWhenEmpty(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 100)
	var blocked vtime.Duration
	s.Spawn("consumer", func(p *Proc) {
		_, blocked = q.Get(p, 10)
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(150 * ms)
		q.Put(p, 10)
	})
	s.Run()
	if blocked != 150*ms {
		t.Fatalf("consumer blocked %v", blocked)
	}
}

func TestQueueGetClosedEmpty(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 10)
	var n float64 = -1
	s.Spawn("consumer", func(p *Proc) {
		n, _ = q.Get(p, 10)
	})
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(10 * ms)
		q.Close()
	})
	s.Run()
	if n != 0 {
		t.Fatalf("Get on closed queue returned %v", n)
	}
}

func TestQueueFIFOProducers(t *testing.T) {
	// Second producer's small put must not jump ahead of the first's large
	// blocked put.
	s := NewScheduler()
	q := NewQueue(s, 100)
	var order []string
	s.Spawn("p1", func(p *Proc) {
		q.Put(p, 100)
		q.Put(p, 80)
		order = append(order, "p1-deposited")
	})
	s.Spawn("p2", func(p *Proc) {
		p.Sleep(10 * ms)
		q.Put(p, 10)
		order = append(order, "p2-deposited")
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(50 * ms)
		for drained := 0.0; drained < 190; {
			n, _ := q.Get(p, 95)
			drained += n
			p.Sleep(10 * ms)
		}
	})
	s.Run()
	if len(order) != 2 || order[0] != "p1-deposited" || order[1] != "p2-deposited" {
		t.Fatalf("order = %v", order)
	}
}

func TestQueueOversizePutPanics(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Spawn("p", func(p *Proc) { q.Put(p, 11) })
	s.Run()
}

func TestQueueOccupancySeries(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, 100)
	s.Spawn("p", func(p *Proc) {
		q.Put(p, 40)
		p.Sleep(100 * ms)
		q.Put(p, 40)
	})
	s.Spawn("c", func(p *Proc) {
		p.Sleep(200 * ms)
		q.Get(p, 1000)
	})
	s.Run()
	if v := q.Occupancy.Average(vtime.Time(50*ms), vtime.Time(51*ms)); math.Abs(v-40) > 1e-9 {
		t.Fatalf("occupancy at 50ms = %v", v)
	}
	if v := q.Occupancy.Average(vtime.Time(150*ms), vtime.Time(151*ms)); math.Abs(v-80) > 1e-9 {
		t.Fatalf("occupancy at 150ms = %v", v)
	}
	if v := q.Occupancy.Average(vtime.Time(250*ms), vtime.Time(251*ms)); v != 0 {
		t.Fatalf("occupancy at 250ms = %v", v)
	}
	if f := q.occupied / q.Capacity; math.Abs(f) > 1e-12 {
		t.Fatalf("final fill %v", f)
	}
}
