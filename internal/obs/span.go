package obs

import (
	"sync"
	"time"
)

// SpanRecord is one completed span. Times are wall-clock, relative to the
// tracer's epoch; the optional VStartNS/VEndNS window records which slice of
// virtual time the stage processed (e.g. a streaming flush window or a
// simulated superstep's span).
type SpanRecord struct {
	// Stage names the pipeline stage ("parse-log", "attribute-instance",
	// "window-flush", "superstep", ...).
	Stage string
	// Worker is the worker-pool lane that executed the span; -1 for
	// single-threaded stages run on the caller's goroutine.
	Worker int
	// Detail optionally names the processed unit (a resource-instance key, a
	// phase path).
	Detail string
	// Start is the wall-clock offset from the tracer epoch; Dur the span
	// length.
	Start time.Duration
	Dur   time.Duration
	// Items counts processed units (events, samples, slices); -1 when not
	// applicable.
	Items int64
	// VStartNS and VEndNS bound the processed virtual-time window in virtual
	// nanoseconds; VEndNS < VStartNS (the zero record has both 0 with set
	// false via HasWindow) means no window.
	VStartNS  int64
	VEndNS    int64
	HasWindow bool
	// Seq is the global completion sequence number, used as a deterministic
	// tie-breaker when sorting.
	Seq uint64
}

// Tracer collects pipeline self-trace spans. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver — the
// disabled path adds zero allocations, which is what keeps instrumented hot
// loops (per-instance attribution, issue replays) free when tracing is off.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []SpanRecord
	seq      uint64
	max      int
	dropped  uint64
	onRecord func(SpanRecord)
}

// DefaultMaxSpans bounds the retained span ring of NewTracer; older spans
// are dropped (and counted) so a long-lived service keeps bounded memory.
const DefaultMaxSpans = 1 << 16

// NewTracer returns an enabled tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), max: DefaultMaxSpans}
}

// Enabled reports whether spans are being collected. Hot paths use it to
// skip computing span annotations (formatted keys, counts) whose evaluation
// would itself allocate when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// OnRecord installs a hook invoked synchronously (under the tracer lock) for
// every completed span — the bridge that feeds span durations into a
// Registry. Install before instrumented code runs.
func (t *Tracer) OnRecord(fn func(SpanRecord)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onRecord = fn
	t.mu.Unlock()
}

// Span is an in-flight span. The zero Span (from a nil tracer) is inert:
// every method is a no-op, and none allocate.
type Span struct {
	t     *Tracer
	start time.Time
	rec   SpanRecord
}

// StartSpan opens a span for one pipeline stage on one worker lane
// (worker -1 = the caller's goroutine).
func (t *Tracer) StartSpan(stage string, worker int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now(),
		rec: SpanRecord{Stage: stage, Worker: worker, Items: -1}}
}

// SetDetail names the unit the span processed.
func (s *Span) SetDetail(detail string) {
	if s.t == nil {
		return
	}
	s.rec.Detail = detail
}

// SetItems records the processed item count.
func (s *Span) SetItems(n int64) {
	if s.t == nil {
		return
	}
	s.rec.Items = n
}

// SetWindow records the virtual-time window the span processed, in virtual
// nanoseconds.
func (s *Span) SetWindow(startNS, endNS int64) {
	if s.t == nil {
		return
	}
	s.rec.VStartNS, s.rec.VEndNS, s.rec.HasWindow = startNS, endNS, true
}

// End completes the span and hands it to the tracer.
func (s *Span) End() {
	t := s.t
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s.rec.Start = s.start.Sub(t.epoch)
	s.rec.Dur = now.Sub(s.start)
	t.seq++
	s.rec.Seq = t.seq
	if len(t.spans) >= t.max {
		// Drop the oldest half in one move, so appends stay amortized O(1).
		half := len(t.spans) / 2
		t.dropped += uint64(half)
		t.spans = append(t.spans[:0], t.spans[half:]...)
	}
	t.spans = append(t.spans, s.rec)
	hook := t.onRecord
	if hook != nil {
		hook(s.rec)
	}
	t.mu.Unlock()
	s.t = nil
}

// Spans returns a snapshot of the retained spans in completion order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Dropped reports how many spans the bounded ring discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
