package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event object. Fields mirror the trace-event
// format: Phase "B"/"E" bound duration slices, "C" carries counter samples,
// "i" marks instants, "M" is metadata (process_name / thread_name /
// *_sort_index). TS is microseconds.
type TraceEvent struct {
	Name  string
	Phase string
	PID   int
	TID   int
	TS    int64
	Scope string // instant scope: "g" (global), "p" (process), "t" (thread)
	Args  map[string]any
}

// TraceBuilder accumulates trace events and serializes them as Chrome
// trace-event JSON, loadable in Perfetto and chrome://tracing. Events are
// written in append order and every object's keys are emitted sorted (via
// encoding/json map marshaling), so identical builder contents produce
// byte-identical output.
type TraceBuilder struct {
	events []TraceEvent
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{}
}

// Len reports the number of accumulated events.
func (b *TraceBuilder) Len() int { return len(b.events) }

// ProcessName labels a pid track group.
func (b *TraceBuilder) ProcessName(pid int, name string) {
	b.events = append(b.events, TraceEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

// ProcessSortIndex orders pid track groups in the UI.
func (b *TraceBuilder) ProcessSortIndex(pid, index int) {
	b.events = append(b.events, TraceEvent{
		Name: "process_sort_index", Phase: "M", PID: pid,
		Args: map[string]any{"sort_index": index},
	})
}

// ThreadName labels a tid track within a pid group.
func (b *TraceBuilder) ThreadName(pid, tid int, name string) {
	b.events = append(b.events, TraceEvent{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// ThreadSortIndex orders tid tracks within a pid group.
func (b *TraceBuilder) ThreadSortIndex(pid, tid, index int) {
	b.events = append(b.events, TraceEvent{
		Name: "thread_sort_index", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"sort_index": index},
	})
}

// Begin opens a duration slice on (pid, tid) at tsUS microseconds.
func (b *TraceBuilder) Begin(pid, tid int, name string, tsUS int64, args map[string]any) {
	b.events = append(b.events, TraceEvent{
		Name: name, Phase: "B", PID: pid, TID: tid, TS: tsUS, Args: args,
	})
}

// End closes the most recently opened slice on (pid, tid) at tsUS.
func (b *TraceBuilder) End(pid, tid int, tsUS int64) {
	b.events = append(b.events, TraceEvent{Phase: "E", PID: pid, TID: tid, TS: tsUS})
}

// Counter records a counter sample; each key in series becomes one stacked
// series of the counter track.
func (b *TraceBuilder) Counter(pid int, name string, tsUS int64, series map[string]float64) {
	args := make(map[string]any, len(series))
	for k, v := range series {
		args[k] = v
	}
	b.events = append(b.events, TraceEvent{
		Name: name, Phase: "C", PID: pid, TS: tsUS, Args: args,
	})
}

// Instant marks a point event. Scope "g"/"p"/"t" controls how tall the marker
// renders; "t" (thread) is the default when scope is empty.
func (b *TraceBuilder) Instant(pid, tid int, name string, tsUS int64, scope string, args map[string]any) {
	if scope == "" {
		scope = "t"
	}
	b.events = append(b.events, TraceEvent{
		Name: name, Phase: "i", PID: pid, TID: tid, TS: tsUS, Scope: scope, Args: args,
	})
}

// WriteJSON serializes the trace as a JSON object with a traceEvents array.
// Identical builder contents yield byte-identical output.
func (b *TraceBuilder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range b.events {
		obj := map[string]any{
			"ph":  ev.Phase,
			"pid": ev.PID,
			"tid": ev.TID,
		}
		if ev.Phase != "E" {
			obj["name"] = ev.Name
		}
		if ev.Phase != "M" {
			obj["ts"] = ev.TS
		}
		if ev.Scope != "" {
			obj["s"] = ev.Scope
		}
		if len(ev.Args) > 0 {
			obj["args"] = ev.Args
		}
		buf, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateTrace checks trace-event invariants over the builder's events:
// every B has a matching E on the same (pid, tid) in stack order, no E
// without an open B, and timestamps are monotone non-decreasing per track —
// B/E per (pid, tid), counters per (pid, name). Instant and metadata events
// are points and carry no ordering constraint. Returns nil when well-formed.
func (b *TraceBuilder) ValidateTrace() error {
	type track struct {
		pid, tid int
		name     string // counter tracks only
	}
	open := map[track][]string{}
	lastTS := map[track]int64{}
	seenTS := map[track]bool{}
	for i, ev := range b.events {
		var tr track
		switch ev.Phase {
		case "B", "E":
			tr = track{pid: ev.PID, tid: ev.TID}
		case "C":
			tr = track{pid: ev.PID, name: ev.Name}
		default:
			continue
		}
		if seenTS[tr] && ev.TS < lastTS[tr] {
			return fmt.Errorf("event %d (%s %q): ts %d before %d on pid=%d tid=%d",
				i, ev.Phase, ev.Name, ev.TS, lastTS[tr], ev.PID, ev.TID)
		}
		lastTS[tr], seenTS[tr] = ev.TS, true
		switch ev.Phase {
		case "B":
			open[tr] = append(open[tr], ev.Name)
		case "E":
			if len(open[tr]) == 0 {
				return fmt.Errorf("event %d: E without open B on pid=%d tid=%d", i, ev.PID, ev.TID)
			}
			open[tr] = open[tr][:len(open[tr])-1]
		}
	}
	var unclosed []string
	for tr, stack := range open {
		for _, name := range stack {
			unclosed = append(unclosed,
				fmt.Sprintf("%q on pid=%d tid=%d", name, tr.pid, tr.tid))
		}
	}
	if len(unclosed) > 0 {
		sort.Strings(unclosed)
		return fmt.Errorf("unclosed B events: %v", unclosed)
	}
	return nil
}
