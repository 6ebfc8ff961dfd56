// Package flight is Grade10's incident-response layer: an always-on bounded
// flight recorder plus triggered diagnostics bundles, applying the paper's
// thesis — performance problems are only fixable when the evidence is
// captured automatically — to the framework itself.
//
// The Recorder tees cheap, fixed-budget rings that already exist or cost
// little to maintain: the obs.Tracer span ring, the obs.LogRing slog ring,
// and the last K window snapshots per engine. The Capturer turns a trigger
// (alert firing, fleet stall/shed, degraded health, SIGQUIT, manual POST)
// into a self-contained bundle directory holding pprof profiles, the span
// ring as a Perfetto trace, the log ring, the window snapshots, the alert
// evaluator's lifecycle snapshot, and a manifest — rate-limited per trigger kind and retained
// oldest-first-evicted under a bundle cap.
//
// Bundles are incident data: they hold wall-clock timestamps, goroutine
// stacks, and profile samples, so they are explicitly EXEMPT from the
// byte-identical determinism contract that governs analyzed-profile outputs.
// Nothing the recorder or capturer observes feeds back into analysis.
package flight

import (
	"sync"

	"grade10/internal/obs"
	"grade10/internal/stream"
)

// DefaultWindowsPerRun is how many recent window snapshots the recorder
// keeps per engine.
const DefaultWindowsPerRun = 8

// DefaultMaxRuns bounds how many runs the window ring tracks at once;
// least-recently-flushed runs are evicted first.
const DefaultMaxRuns = 64

// Recorder is the always-on half of the flight recorder: bounded in-memory
// rings a bundle capture snapshots. All methods are safe for concurrent use
// and non-blocking — OnWindowFlush runs on the stream engine's flush path,
// under the engine lock.
type Recorder struct {
	// Tracer is the span ring to snapshot into bundles (may be nil).
	Tracer *obs.Tracer
	// LogRing is the bounded slog ring to snapshot into bundles (may be nil).
	LogRing *obs.LogRing

	mu         sync.Mutex
	winPerRun  int
	maxRuns    int
	windows    map[string][]*stream.WindowResult
	winOrder   []string // least-recently-flushed first
	winDropped uint64
}

// NewRecorder builds a recorder over the given span and log rings (either
// may be nil; the corresponding bundle section is then omitted).
func NewRecorder(tracer *obs.Tracer, ring *obs.LogRing) *Recorder {
	return &Recorder{
		Tracer:    tracer,
		LogRing:   ring,
		winPerRun: DefaultWindowsPerRun,
		maxRuns:   DefaultMaxRuns,
		windows:   map[string][]*stream.WindowResult{},
	}
}

// OnWindowFlush retains one flushed window for run (the last winPerRun are
// kept). WindowResults are immutable once
// flushed, so retaining the pointer is safe. Non-blocking: it runs under the
// engine lock.
func (r *Recorder) OnWindowFlush(run string, wr *stream.WindowResult) {
	if r == nil || wr == nil {
		return
	}
	r.mu.Lock()
	ring, known := r.windows[run]
	if !known {
		// Evict the least-recently-flushed run once the run cap is hit.
		if len(r.winOrder) >= r.maxRuns {
			oldest := r.winOrder[0]
			r.winOrder = r.winOrder[1:]
			r.winDropped += uint64(len(r.windows[oldest]))
			delete(r.windows, oldest)
		}
		r.winOrder = append(r.winOrder, run)
	} else {
		for i, name := range r.winOrder {
			if name == run {
				r.winOrder = append(r.winOrder[:i], r.winOrder[i+1:]...)
				break
			}
		}
		r.winOrder = append(r.winOrder, run)
	}
	ring = append(ring, wr)
	if over := len(ring) - r.winPerRun; over > 0 {
		r.winDropped += uint64(over)
		ring = append(ring[:0], ring[over:]...)
	}
	r.windows[run] = ring
	r.mu.Unlock()
}

// RunWindows is one run's retained window snapshots, bundle-shaped.
type RunWindows struct {
	Run     string                 `json:"run"`
	Windows []*stream.WindowResult `json:"windows"`
}

// WindowSnapshots returns every retained window ring, least-recently-flushed
// run first.
func (r *Recorder) WindowSnapshots() []RunWindows {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunWindows, 0, len(r.winOrder))
	for _, run := range r.winOrder {
		out = append(out, RunWindows{
			Run:     run,
			Windows: append([]*stream.WindowResult(nil), r.windows[run]...),
		})
	}
	return out
}

// RegisterMetrics exposes the recorder's ring budgets and drop counters
// (the log ring registers its own families; the tracer's span drops are
// already grade10_spans_dropped_total via BridgeTracer):
//
//	grade10_flight_window_snapshots            retained window snapshots
//	grade10_flight_window_dropped_total        snapshots evicted by the rings
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.LogRing.RegisterMetrics(reg)
	reg.GaugeFunc("grade10_flight_window_snapshots",
		"Window snapshots retained by the flight recorder across all runs.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			n := 0
			for _, ring := range r.windows {
				n += len(ring)
			}
			return float64(n)
		})
	reg.GaugeFunc("grade10_flight_window_dropped_total",
		"Window snapshots evicted from the flight recorder's bounded rings.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.winDropped)
		})
}
