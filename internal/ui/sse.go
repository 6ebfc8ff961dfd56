package ui

import (
	"encoding/json"
	"net/http"
	"sync"

	"grade10/internal/alert"
	"grade10/internal/obs"
	"grade10/internal/stream"
)

// DefaultQueueLen bounds each SSE subscriber's frame queue. A subscriber
// that falls this many frames behind is disconnected rather than allowed to
// block the flush path.
const DefaultQueueLen = 64

// Broker fans window-flush events out to SSE subscribers. Publishing is
// non-blocking: it runs on the stream engine's flush path (under the engine
// lock), so a slow or closed subscriber is dropped — its queue is bounded
// and a full queue disconnects it — instead of stalling ingest.
type Broker struct {
	queueLen int

	mu   sync.Mutex
	subs map[chan []byte]struct{}

	dropped *obs.Counter
}

// NewBroker creates a broker with the given per-subscriber queue length
// (<= 0 means DefaultQueueLen).
func NewBroker(queueLen int) *Broker {
	if queueLen <= 0 {
		queueLen = DefaultQueueLen
	}
	return &Broker{queueLen: queueLen, subs: map[chan []byte]struct{}{}}
}

// RegisterMetrics exposes the broker's gauges and counters on reg:
//
//	grade10_ui_sse_subscribers     currently connected event-stream clients
//	grade10_ui_sse_dropped_total   subscribers disconnected for falling behind
func (b *Broker) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("grade10_ui_sse_subscribers",
		"SSE clients currently subscribed to /api/events.",
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.subs))
		})
	b.dropped = reg.Counter("grade10_ui_sse_dropped_total",
		"SSE subscribers disconnected because their bounded frame queue overflowed.")
}

// OnWindowFlush is the stream.Config hook: each flushed window becomes one
// `event: window` frame; the final nil call becomes `event: final`. It never
// blocks (the engine lock is held by the caller). With no subscriber a
// window is not encoded at all: frames are never replayed to later
// subscribers, so nobody could read it.
func (b *Broker) OnWindowFlush(wr *stream.WindowResult) {
	if wr == nil {
		b.publish(frame("final", []byte("{}")))
		return
	}
	b.mu.Lock()
	idle := len(b.subs) == 0
	b.mu.Unlock()
	if idle {
		return
	}
	data, err := json.Marshal(wr)
	if err != nil {
		return
	}
	b.publish(frame("window", data))
}

// PublishAlerts is the alerting hook (stream.Config.OnAlert / fleet
// Config.OnAlert): each batch of lifecycle transitions becomes one
// `event: alert` frame carrying the events as a JSON array. Non-blocking,
// like every publish — it runs on the flush path.
func (b *Broker) PublishAlerts(events []alert.Event) {
	if len(events) == 0 {
		return
	}
	data, err := json.Marshal(events)
	if err != nil {
		return
	}
	b.publish(frame("alert", data))
}

// frame renders one SSE frame. Data must be a single line (compact JSON).
func frame(event string, data []byte) []byte {
	buf := make([]byte, 0, len(event)+len(data)+16)
	buf = append(buf, "event: "...)
	buf = append(buf, event...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...)
	buf = append(buf, "\n\n"...)
	return buf
}

// publish enqueues one frame on every subscriber, disconnecting any whose
// queue is full.
func (b *Broker) publish(fr []byte) {
	b.mu.Lock()
	var dead []chan []byte
	for ch := range b.subs {
		select {
		case ch <- fr:
		default:
			dead = append(dead, ch)
		}
	}
	for _, ch := range dead {
		delete(b.subs, ch)
		close(ch)
		if b.dropped != nil {
			b.dropped.Inc()
		}
	}
	b.mu.Unlock()
}

// Shutdown disconnects every subscriber (their streams end cleanly) so the
// host server can drain SSE connections on exit. The broker stays usable:
// later subscribers are accepted as usual.
func (b *Broker) Shutdown() {
	b.mu.Lock()
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// subscribe registers a new queue. The returned cancel is idempotent-safe to
// call after the broker already dropped the subscriber.
func (b *Broker) subscribe() (ch chan []byte, cancel func()) {
	ch = make(chan []byte, b.queueLen)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, live := b.subs[ch]; live {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
}

// ServeHTTP streams events to one subscriber: an immediate `event: hello`
// frame (so clients and smoke tests always see a frame, even after the run
// finalized), then every published frame until the client disconnects or the
// broker drops it.
func (b *Broker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, cancel := b.subscribe()
	defer cancel()

	if _, err := w.Write(frame("hello", []byte("{}"))); err != nil {
		return
	}
	fl.Flush()

	for {
		select {
		case fr, open := <-ch:
			if !open {
				return // dropped for falling behind
			}
			if _, err := w.Write(fr); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
