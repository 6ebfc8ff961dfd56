package stream

import (
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// IngestEvent feeds one already-decoded event, for tests that craft events
// the log encodings cannot carry or that need no log text.
func (e *Engine) IngestEvent(ev enginelog.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.touch()
	e.ingestEventLocked(ev)
}

// FollowSinkFor returns the sink Follow tails a run directory into, so tests
// can deliver a run without files or a clock, and a getter for the engine
// build made once run.json arrived.
func FollowSinkFor(build func(rundir.Info) (*Engine, error)) (rundir.FollowSink, func() *Engine) {
	fs := &followSink{build: build}
	return fs.sink(), func() *Engine { return fs.e }
}

// MemStats is the engine's retained-state sizes, which the bounded-memory
// tests read.
type MemStats struct {
	OpenPhases    int
	PendingLeaves int
	TreePhases    int
}

// Mem returns the engine's retained-state sizes.
func (e *Engine) Mem() MemStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	tree := 0
	e.tree.Root().Walk(func(*core.Phase) { tree++ })
	return MemStats{
		OpenPhases:    len(e.tree.Open()),
		PendingLeaves: len(e.pending),
		TreePhases:    tree - 1,
	}
}

// WindowLeaves returns the leaves a flush of [w0, w1) would hand to
// attribution, in their order, without flushing.
func (e *Engine) WindowLeaves(w0, w1 vtime.Time) []*core.Phase {
	e.mu.Lock()
	defer e.mu.Unlock()
	leaves, reopened := e.windowLeavesLocked(w0, w1)
	for _, ph := range reopened {
		ph.End = -1
	}
	return leaves
}
