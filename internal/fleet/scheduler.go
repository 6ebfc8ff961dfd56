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

// SchedulerConfig bounds the admission scheduler.
type SchedulerConfig struct {
	// MaxActive caps concurrently ingesting runs; default 8.
	MaxActive int
	// QueueDepth caps the admission backlog; registrations beyond
	// MaxActive+QueueDepth are shed. Default 64.
	QueueDepth int
}

func (c *SchedulerConfig) fill() {
	if c.MaxActive <= 0 {
		c.MaxActive = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// Scheduler is the fleet's bounded admission scheduler: at most MaxActive
// runs ingest concurrently, at most QueueDepth wait behind them, and
// everything beyond that is shed (counted). It holds pure admission state —
// no goroutines — so burst behavior is deterministic and testable; the Fleet
// wraps it with the actual per-run workers.
type Scheduler struct {
	cfg SchedulerConfig

	mu        sync.Mutex
	active    map[string]bool
	queue     []string
	shedTotal int64
}

// NewScheduler returns an empty scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.fill()
	return &Scheduler{cfg: cfg, active: map[string]bool{}}
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
	case len(s.active) < s.cfg.MaxActive:
		s.active[id] = true
		return DecisionActive, nil
	case len(s.queue) < s.cfg.QueueDepth:
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
	for len(s.queue) > 0 && len(s.active) < s.cfg.MaxActive {
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
