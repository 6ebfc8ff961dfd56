package stream_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grade10/internal/obs"
	"grade10/internal/service"
	"grade10/internal/stream"
)

// TestHealthzStaleness drives /healthz through the degraded state machine
// with an injected clock: healthy while fresh, 503 with a reason once the
// last ingest is older than the threshold, healthy again on any input (even
// a malformed line — feed liveness, not parse success), and permanently
// healthy after finalization.
func TestHealthzStaleness(t *testing.T) {
	f := getFixture(t)
	var nowNS atomic.Int64 // the follow goroutine reads the clock too
	nowNS.Store(time.Unix(1_700_000_000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, nowNS.Load()) }
	advance := func(d time.Duration) { nowNS.Add(int64(d)) }
	dir := writeRun(t, f, "", "")
	srv, _ := serveDir(t, service.Config{
		StaleAfter: 5 * time.Second,
		Engine:     stream.Config{Models: f.models, RetainForFinal: true, Now: now},
	}, dir)

	if code, _, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("fresh engine: /healthz %d, want 200", code)
	}

	advance(10 * time.Second)
	code, body, _ := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stale engine: /healthz %d, want 503", code)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "threshold") {
		t.Fatalf("degraded reason missing from body: %q", body)
	}

	// Any ingest attempt — even a line the parser rejects — counts as feed
	// activity and clears the degraded state.
	appendTo(t, dir, "execution.log", "definitely not an enginelog event\n")
	waitFor(t, "/healthz healthy after ingest", func() bool {
		code, _, _ := get(t, srv, "/healthz")
		return code == http.StatusOK
	})

	advance(time.Minute)
	if code, _, _ := get(t, srv, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("stale again: /healthz %d, want 503", code)
	}

	appendTo(t, dir, "execution.log", f.logText)
	appendTo(t, dir, "monitoring.csv", f.monText)
	_, e, _ := srv.Fleet().Pinned()
	waitFor(t, "finalize", func() bool { return finalized(e) })
	advance(24 * time.Hour)
	if code, _, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("finalized engine must never be stale: /healthz %d", code)
	}

	// Without a threshold, staleness checking is off entirely.
	srv2, _ := serveDir(t, service.Config{Engine: stream.Config{Models: f.models, Now: now}},
		writeRun(t, f, "", ""))
	advance(time.Hour)
	if code, _, _ := get(t, srv2, "/healthz"); code != http.StatusOK {
		t.Fatalf("no threshold: /healthz %d, want 200", code)
	}
}

// TestServerTrace exercises GET /trace: 503 when there is neither a tracer
// nor a finalized profile, and a valid Chrome trace-event document — self
// spans plus job tracks — once a traced run finalizes in retain mode.
func TestServerTrace(t *testing.T) {
	f := getFixture(t)

	// No tracer, bounded mode: nothing to export.
	bare, _ := serveRun(t, service.Config{Engine: stream.Config{Models: f.models}})
	if code, _, _ := get(t, bare, "/trace"); code != http.StatusServiceUnavailable {
		t.Fatalf("/trace with nothing to export: %d, want 503", code)
	}

	tracer := obs.NewTracer()
	srv, _ := serveRun(t, service.Config{Engine: stream.Config{
		Models: f.models, RetainForFinal: true, WindowSlices: 8,
		ExpectedInstances: len(f.monitoring), Tracer: tracer,
	}})

	code, body, hdr := get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace after finalize: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/trace content type %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace has no events")
	}
	for _, want := range []string{"window-flush", "job:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/trace missing %q", want)
		}
	}

	// Window processing must have produced self-trace spans.
	var flushes int
	for _, s := range tracer.Spans() {
		if s.Stage == "window-flush" {
			flushes++
			if !s.HasWindow {
				t.Error("window-flush span has no virtual-time window")
			}
		}
	}
	if flushes == 0 {
		t.Fatal("no window-flush spans recorded")
	}
}

// TestMetricsRegistryFamilies checks the serve-mode metrics stack — runtime
// gauges, tracer bridge, engine staleness gauges — on the /metrics
// exposition alongside the live-profile snapshot families.
func TestMetricsRegistryFamilies(t *testing.T) {
	f := getFixture(t)
	tracer := obs.NewTracer()
	srv, _ := serveRun(t, service.Config{Engine: stream.Config{
		Models: f.models, WindowSlices: 8,
		ExpectedInstances: len(f.monitoring), Tracer: tracer,
	}})

	_, body, _ := get(t, srv, "/metrics")
	families := []string{
		"grade10_stage_duration_seconds",
		"grade10_stage_items_total",
		"grade10_spans_total",
		"grade10_spans_dropped_total",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"go_mem_sys_bytes",
		"go_gc_cycles_total",
		"grade10_uptime_seconds",
		"grade10_last_ingest_age_seconds",
		"grade10_health_degraded",
	}
	for _, name := range families {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing family %s", name)
		}
	}
	// The tracer bridge must have observed the window flushes.
	if !strings.Contains(body, `grade10_stage_duration_seconds_bucket{stage="window-flush"`) {
		t.Errorf("/metrics missing window-flush stage histogram:\n%s", body)
	}
	// The live-profile snapshot families ride the same exposition.
	if !strings.Contains(body, "# TYPE grade10_events_total counter") {
		t.Error("/metrics lost the snapshot families")
	}
}
