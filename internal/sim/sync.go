package sim

import (
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// Barrier synchronizes N processes: each waits until all have arrived, then
// all are released at the same instant. The barrier is reusable across
// rounds (supersteps).
type Barrier struct {
	N       int
	arrived int
	waiters []*Proc
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{N: n}
}

// Wait blocks p until all N parties have arrived. It returns the time spent
// waiting, which engines log as barrier blocking time.
func (b *Barrier) Wait(p *Proc) vtime.Duration {
	start := p.Now()
	b.arrived++
	if b.arrived == b.N {
		// Last arrival: release everyone and reset for the next round.
		waiters := b.waiters
		b.waiters = nil
		b.arrived = 0
		for _, w := range waiters {
			w.wake()
		}
		return 0
	}
	b.waiters = append(b.waiters, p)
	p.park()
	return p.Now().Sub(start)
}

// Gate is a manual-reset event: processes wait until it opens; once open,
// waits pass immediately until the gate is closed again.
type Gate struct {
	open    bool
	waiters []*Proc
}

// Wait blocks p until the gate is open, returning the time spent blocked.
func (g *Gate) Wait(p *Proc) vtime.Duration {
	if g.open {
		return 0
	}
	start := p.Now()
	g.waiters = append(g.waiters, p)
	p.park()
	return p.Now().Sub(start)
}

// Open releases all current and future waiters until Close is called.
func (g *Gate) Open() {
	g.open = true
	waiters := g.waiters
	g.waiters = nil
	for _, w := range waiters {
		w.wake()
	}
}

// Close resets the gate so subsequent Waits block.
func (g *Gate) Close() { g.open = false }

// Queue is a bounded buffer measured in abstract units (the engines use
// bytes). Producers putting beyond capacity block until consumers make room —
// the mechanism behind the Giraph-like engine's message-queue stalls.
// Occupancy is recorded as a step function for queue-length analysis.
type Queue struct {
	sched *Scheduler
	// Capacity is the maximum occupancy.
	Capacity float64
	// Occupancy records the queue fill level over time.
	Occupancy metrics.Series

	occupied   float64
	closed     bool
	putWaiters []*queueWaiter
	getWaiters []*Proc
}

type queueWaiter struct {
	proc   *Proc
	amount float64
}

// NewQueue creates a bounded queue with the given capacity.
func NewQueue(s *Scheduler, capacity float64) *Queue {
	if capacity <= 0 {
		panic("sim: queue needs positive capacity")
	}
	return &Queue{sched: s, Capacity: capacity}
}

// Put adds amount to the queue, blocking p while it does not fit. Amounts
// larger than the capacity panic (they could never fit). It returns the time
// spent blocked.
func (q *Queue) Put(p *Proc, amount float64) vtime.Duration {
	if amount <= 0 {
		return 0
	}
	if amount > q.Capacity {
		panic("sim: queue put larger than capacity")
	}
	start := p.Now()
	if q.occupied+amount <= q.Capacity && len(q.putWaiters) == 0 {
		q.deposit(amount)
		return 0
	}
	// FIFO among producers: later puts queue behind earlier ones even if
	// they would fit, preventing starvation of large puts.
	q.putWaiters = append(q.putWaiters, &queueWaiter{proc: p, amount: amount})
	p.park()
	return p.Now().Sub(start)
}

// deposit adds to the queue and releases any consumers waiting for data.
func (q *Queue) deposit(amount float64) {
	q.occupied += amount
	q.Occupancy.Set(q.sched.Now(), q.occupied)
	getters := q.getWaiters
	q.getWaiters = nil
	for _, g := range getters {
		g.wake()
	}
}

// Get removes up to max from the queue, blocking p while the queue is empty
// (unless closed). It returns the amount taken (zero only if the queue is
// closed and drained) and the time spent blocked.
func (q *Queue) Get(p *Proc, max float64) (float64, vtime.Duration) {
	if max <= 0 {
		return 0, 0
	}
	start := p.Now()
	for q.occupied == 0 {
		if q.closed {
			return 0, p.Now().Sub(start)
		}
		q.getWaiters = append(q.getWaiters, p)
		p.park()
	}
	take := max
	if take > q.occupied {
		take = q.occupied
	}
	q.occupied -= take
	q.Occupancy.Set(q.sched.Now(), q.occupied)
	q.admitWaiters()
	return take, p.Now().Sub(start)
}

// admitWaiters lets queued producers deposit in FIFO order while their
// amounts fit.
func (q *Queue) admitWaiters() {
	for len(q.putWaiters) > 0 {
		w := q.putWaiters[0]
		if q.occupied+w.amount > q.Capacity {
			return
		}
		q.putWaiters = q.putWaiters[1:]
		q.deposit(w.amount)
		w.proc.wake()
	}
}

// Close marks the queue as finished: blocked and future Gets return zero once
// the queue drains. Producers must not Put after Close.
func (q *Queue) Close() {
	q.closed = true
	getters := q.getWaiters
	q.getWaiters = nil
	for _, g := range getters {
		g.wake()
	}
}
