// Package enginelog defines the execution-log format shared by the simulated
// engines (producers) and Grade10 (consumer). A log is a sequence of events:
// phase starts/ends carrying hierarchical instance paths, blocking events
// (GC pauses, queue stalls, barrier waits) attached to phases, and scalar
// counters. The package provides an in-memory representation, a plain-text
// serialization, and a parser, so the full file-based pipeline of the paper
// (SUT writes logs, Grade10 ingests them) can be exercised end to end.
package enginelog

import (
	"fmt"
	"strings"

	"grade10/internal/vtime"
)

// Kind discriminates log event types.
type Kind int

// Event kinds.
const (
	// PhaseStart marks the beginning of a phase instance.
	PhaseStart Kind = iota
	// PhaseEnd marks the end of a phase instance.
	PhaseEnd
	// Blocked records an interval during which a phase was stalled on a
	// blocking resource.
	Blocked
	// Counter records a named scalar observation.
	Counter
)

// Event is one log record.
type Event struct {
	Kind Kind
	// Time is the instant of a start/end/counter event, or the beginning of
	// a blocking interval.
	Time vtime.Time
	// End is the end of a blocking interval (Blocked only).
	End vtime.Time
	// Path is the phase instance path, e.g.
	// "/pagerank/execute/superstep.3/worker.1/compute/thread.0".
	Path string
	// Machine is the machine hosting the phase (PhaseStart only; -1 when
	// not bound to one machine).
	Machine int
	// Resource names the blocking resource (Blocked only).
	Resource string
	// Name and Value carry counter data (Counter only).
	Name  string
	Value float64
}

// Log is an ordered event sequence.
type Log struct {
	Events []Event
}

// Instance paths are slash-separated segments; a segment is "name" or
// "name.index" for repeated phases. The type path strips indices:
// TypePath("/a/superstep.3/worker.1") == "/a/superstep/worker".

// Join appends a segment to a path.
func Join(parent, name string) string {
	if parent == "/" {
		return "/" + name
	}
	return parent + "/" + name
}

// JoinIndexed appends an indexed segment ("name.index") to a path.
func JoinIndexed(parent, name string, index int) string {
	return Join(parent, fmt.Sprintf("%s.%d", name, index))
}

// Split returns the segments of a path.
func Split(path string) []string {
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return nil
	}
	return strings.Split(trimmed, "/")
}

// SegmentName returns the name part of a segment, stripping any index.
func SegmentName(segment string) string {
	if i := strings.LastIndexByte(segment, '.'); i >= 0 {
		return segment[:i]
	}
	return segment
}

// SegmentIndex returns the index of a segment, or -1 if it has none.
func SegmentIndex(segment string) int {
	i := strings.LastIndexByte(segment, '.')
	if i < 0 {
		return -1
	}
	idx := 0
	for _, c := range segment[i+1:] {
		if c < '0' || c > '9' {
			return -1
		}
		idx = idx*10 + int(c-'0')
	}
	return idx
}

// TypePath maps an instance path to its phase-type path by stripping all
// segment indices.
func TypePath(path string) string {
	segs := Split(path)
	for i, s := range segs {
		segs[i] = SegmentName(s)
	}
	return "/" + strings.Join(segs, "/")
}

// Parent returns the parent instance path, or "/" for a top-level path.
func Parent(path string) string {
	segs := Split(path)
	if len(segs) <= 1 {
		return "/"
	}
	return "/" + strings.Join(segs[:len(segs)-1], "/")
}

// Logger accumulates events with timestamps from a clock function. Engines
// embed one and call the typed helpers; the result is read via Log or
// serialized with Write.
type Logger struct {
	now func() vtime.Time
	log Log
}

// NewLogger creates a logger reading timestamps from now.
func NewLogger(now func() vtime.Time) *Logger {
	return &Logger{now: now}
}

func (l *Logger) emit(e Event) { l.log.Events = append(l.log.Events, e) }

// StartPhase logs the beginning of a phase on a machine (-1 if unbound).
func (l *Logger) StartPhase(path string, machine int) {
	l.emit(Event{Kind: PhaseStart, Time: l.now(), Path: path, Machine: machine})
}

// EndPhase logs the end of a phase.
func (l *Logger) EndPhase(path string) {
	l.emit(Event{Kind: PhaseEnd, Time: l.now(), Path: path})
}

// BlockedSince logs a blocking interval that started at `since` and ends now.
// Zero-length intervals are dropped.
func (l *Logger) BlockedSince(path, resource string, since vtime.Time) {
	now := l.now()
	if now <= since {
		return
	}
	l.emit(Event{Kind: Blocked, Time: since, End: now, Path: path, Resource: resource})
}

// AddCounter logs a named scalar.
func (l *Logger) AddCounter(name string, value float64) {
	l.emit(Event{Kind: Counter, Time: l.now(), Name: name, Value: value})
}

// Log returns the accumulated events.
func (l *Logger) Log() *Log { return &l.log }
