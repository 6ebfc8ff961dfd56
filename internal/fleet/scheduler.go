package fleet

import (
	"fmt"
	"sync"
)

// Decision is the admission scheduler's verdict on one registration.
type Decision int

const (
	// DecisionActive admits the run immediately: an active slot was free.
	DecisionActive Decision = iota
	// DecisionQueued parks the run in the FIFO backlog until a slot frees.
	DecisionQueued
	// DecisionShed rejects the run: active slots and queue are both full.
	// Shedding is load protection, not failure — the caller may re-register
	// once /fleet/runs shows capacity.
	DecisionShed
)

func (d Decision) String() string {
	switch d {
	case DecisionActive:
		return "active"
	case DecisionQueued:
		return "queued"
	case DecisionShed:
		return "shed"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Scheduler is the fleet's bounded admission scheduler: at most MaxActive
// runs ingest concurrently, at most QueueDepth wait behind them, and
// everything beyond that is shed (counted). It holds pure admission state —
// no goroutines — so burst behavior is deterministic and testable; the Fleet
// wraps it with the actual per-run workers.
type Scheduler struct {
	maxActive, queueDepth int

	mu        sync.Mutex
	active    map[string]bool
	queue     []string
	shedTotal int64
}

// NewScheduler returns an empty scheduler admitting maxActive concurrent
// runs (default 8) with a backlog of queueDepth (default 64); registrations
// beyond maxActive+queueDepth are shed.
func NewScheduler(maxActive, queueDepth int) *Scheduler {
	if maxActive <= 0 {
		maxActive = 8
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	return &Scheduler{maxActive: maxActive, queueDepth: queueDepth, active: map[string]bool{}}
}

// Admit decides one registration: an active slot if one is free, else the
// queue if it has room, else shed. Duplicate IDs (already active or queued)
// are an error.
func (s *Scheduler) Admit(id string) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[id] {
		return DecisionShed, fmt.Errorf("fleet: run %q is already active", id)
	}
	for _, q := range s.queue {
		if q == id {
			return DecisionShed, fmt.Errorf("fleet: run %q is already queued", id)
		}
	}
	switch {
	case len(s.active) < s.maxActive:
		s.active[id] = true
		return DecisionActive, nil
	case len(s.queue) < s.queueDepth:
		s.queue = append(s.queue, id)
		return DecisionQueued, nil
	default:
		s.shedTotal++
		return DecisionShed, nil
	}
}

// Release frees the run's active slot (or removes it from the queue) and
// promotes queued runs FIFO into the freed capacity, returning the promoted
// IDs in admission order. Unknown IDs are a no-op.
func (s *Scheduler) Release(id string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[id] {
		delete(s.active, id)
	} else {
		for i, q := range s.queue {
			if q == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	var promoted []string
	for len(s.queue) > 0 && len(s.active) < s.maxActive {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.active[next] = true
		promoted = append(promoted, next)
	}
	return promoted
}

// Counts reports the live admission state: active runs, queued runs, and the
// lifetime shed total.
func (s *Scheduler) Counts() (active, queued int, shed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active), len(s.queue), s.shedTotal
}
