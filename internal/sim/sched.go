// Package sim is a deterministic discrete-event simulation core with a fluid
// resource model. It provides the substrate on which the Giraph-like and
// PowerGraph-like engines run: a virtual-time scheduler, coroutine-style
// processes, processor-sharing CPUs, fair-shared network flows, and
// synchronization primitives (barriers, bounded queues, gates).
//
// Determinism: exactly one process runs at any instant; events firing at the
// same virtual time are ordered by scheduling sequence number. Given the same
// inputs and seeds, a simulation always produces the same trace.
package sim

import (
	"container/heap"
	"fmt"

	"grade10/internal/vtime"
)

// Event is a scheduled callback. It can be canceled before it fires.
type Event struct {
	at       vtime.Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Scheduler owns virtual time and the pending-event queue.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now   vtime.Time
	queue eventHeap
	seq   uint64
	procs map[*Proc]struct{} // live (spawned, not finished) processes
}

// NewScheduler returns a scheduler at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() vtime.Time { return s.now }

// At schedules fn to run at virtual instant t. Scheduling in the past panics:
// simulated components only move forward.
func (s *Scheduler) At(t vtime.Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, s.now))
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d vtime.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step fires the next pending event, advancing virtual time to it.
// It reports whether an event was fired.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if e.canceled {
			continue
		}
		s.now = e.at
		e.fn()
		return true
	}
	return false
}

// Run fires events until none remain. It panics if processes remain parked
// with no pending events (a simulation deadlock), listing the stuck
// processes — a deadlock is always a bug in the simulated engine.
func (s *Scheduler) Run() {
	for s.Step() {
	}
	if stuck := s.parkedProcs(); len(stuck) > 0 {
		panic(fmt.Sprintf("sim: deadlock at %v; parked processes: %v", s.now, stuck))
	}
}

func (s *Scheduler) parkedProcs() []string {
	var names []string
	for p := range s.procs {
		if p.parked {
			names = append(names, p.name)
		}
	}
	return names
}
