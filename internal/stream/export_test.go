package stream

import "grade10/internal/rundir"

// FollowSinkFor returns the sink Follow tails a run directory into, so tests
// can deliver a run without files or a clock, and a getter for the engine
// build made once run.json arrived.
func FollowSinkFor(build func(rundir.Info) (*Engine, error)) (rundir.FollowSink, func() *Engine) {
	fs := &followSink{build: build}
	return fs.sink(), func() *Engine { return fs.e }
}
