package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// DefaultLogRingBytes is the default byte budget of the flight recorder's
// bounded log ring: enough for a few thousand records, small enough to be an
// always-on cost.
const DefaultLogRingBytes = 256 << 10

// LogRecord is one retained log record, rendered to plain values so the ring
// holds no references into handler state.
type LogRecord struct {
	// Seq is a monotone sequence number over everything ever appended, so
	// consumers can detect gaps across drops.
	Seq        uint64            `json:"seq"`
	TimeUnixNS int64             `json:"time_unix_ns"`
	Level      string            `json:"level"`
	Msg        string            `json:"msg"`
	Attrs      map[string]string `json:"attrs,omitempty"`

	levelNum slog.Level
	bytes    int64 // approximate retained size
}

// LogRing is a bounded in-memory ring of recent log records — the flight
// recorder's log buffer. It retains every level down to debug regardless of
// the output handler's minimum, within an explicit byte budget: when the
// budget overflows, the oldest records are dropped and counted. All methods
// are safe for concurrent use; a nil ring is inert.
type LogRing struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	recs    []LogRecord
	dropped uint64
	seq     uint64
}

// NewLogRing creates a ring with a DefaultLogRingBytes budget.
func NewLogRing() *LogRing {
	return &LogRing{max: DefaultLogRingBytes}
}

// append adds one record, evicting oldest-first past the byte budget.
func (r *LogRing) append(rec LogRecord) {
	if r == nil {
		return
	}
	rec.bytes = int64(len(rec.Msg)+len(rec.Level)) + 64
	for k, v := range rec.Attrs {
		rec.bytes += int64(len(k) + len(v) + 32)
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.recs = append(r.recs, rec)
	r.bytes += rec.bytes
	drop := 0
	for r.bytes > r.max && drop < len(r.recs)-1 {
		r.bytes -= r.recs[drop].bytes
		drop++
	}
	if drop > 0 {
		r.dropped += uint64(drop)
		r.recs = append(r.recs[:0], r.recs[drop:]...)
	}
	r.mu.Unlock()
}

// Records returns the newest records at or above minLevel, oldest first,
// capped at limit (<= 0 means all retained).
func (r *LogRing) Records(minLevel slog.Level, limit int) []LogRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []LogRecord
	for i := range r.recs {
		if r.recs[i].levelNum >= minLevel {
			out = append(out, r.recs[i])
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return append([]LogRecord(nil), out...)
}

// Dropped reports how many records the byte budget evicted.
func (r *LogRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Bytes reports the approximate retained size.
func (r *LogRing) Bytes() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Len reports the retained record count.
func (r *LogRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// RegisterMetrics exposes the ring's budget accounting on reg:
//
//	grade10_flight_log_ring_bytes          approximate retained size
//	grade10_flight_log_ring_records        retained record count
//	grade10_flight_log_ring_dropped_total  records evicted by the byte budget
func (r *LogRing) RegisterMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.GaugeFunc("grade10_flight_log_ring_bytes",
		"Approximate bytes retained by the flight recorder's log ring.",
		func() float64 { return float64(r.Bytes()) })
	reg.GaugeFunc("grade10_flight_log_ring_records",
		"Log records retained by the flight recorder's log ring.",
		func() float64 { return float64(r.Len()) })
	reg.GaugeFunc("grade10_flight_log_ring_dropped_total",
		"Log records evicted from the flight recorder's ring by its byte budget.",
		func() float64 { return float64(r.Dropped()) })
}

// Wrap tees a slog.Handler into the ring: every record (down to debug, even
// below the inner handler's minimum — the flight recorder keeps more detail
// than the console shows) is appended to the ring, then forwarded to inner
// when inner accepts its level.
func (r *LogRing) Wrap(inner slog.Handler) slog.Handler {
	return &ringHandler{ring: r, inner: inner}
}

// NewLoggerWithRing is NewLogger with the log ring teed in: the returned
// logger writes to w exactly as NewLogger would, and every record — including
// debug records suppressed from w — also lands in ring.
func NewLoggerWithRing(w io.Writer, cmd, format, level string, ring *LogRing) (*slog.Logger, error) {
	base, err := NewLogger(w, cmd, format, level)
	if err != nil {
		return nil, err
	}
	if ring == nil {
		return base, nil
	}
	return slog.New(ring.Wrap(base.Handler())), nil
}

// ringHandler tees records into a LogRing ahead of the wrapped handler.
type ringHandler struct {
	ring  *LogRing
	inner slog.Handler
	attrs []slog.Attr
}

// Enabled accepts everything down to debug so the ring captures records the
// inner handler's minimum level would suppress from the console.
func (h *ringHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= slog.LevelDebug
}

func (h *ringHandler) Handle(ctx context.Context, rec slog.Record) error {
	lr := LogRecord{
		TimeUnixNS: rec.Time.UnixNano(),
		Level:      rec.Level.String(),
		Msg:        rec.Message,
		levelNum:   rec.Level,
	}
	if rec.Time.IsZero() {
		lr.TimeUnixNS = time.Now().UnixNano()
	}
	n := rec.NumAttrs() + len(h.attrs)
	if n > 0 {
		lr.Attrs = make(map[string]string, n)
		for _, a := range h.attrs {
			lr.Attrs[a.Key] = a.Value.String()
		}
		rec.Attrs(func(a slog.Attr) bool {
			lr.Attrs[a.Key] = a.Value.String()
			return true
		})
	}
	h.ring.append(lr)
	if h.inner.Enabled(ctx, rec.Level) {
		return h.inner.Handle(ctx, rec)
	}
	return nil
}

func (h *ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ringHandler{
		ring:  h.ring,
		inner: h.inner.WithAttrs(attrs),
		attrs: append(append([]slog.Attr(nil), h.attrs...), attrs...),
	}
}

func (h *ringHandler) WithGroup(name string) slog.Handler {
	// Groups are flattened, matching prefixHandler: the cmd binaries only
	// use top-level attrs.
	return &ringHandler{ring: h.ring, inner: h.inner.WithGroup(name), attrs: h.attrs}
}
