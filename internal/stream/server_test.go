package stream_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grade10/internal/service"
	"grade10/internal/stream"
)

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String(), rec.Header()
}

// writeRun writes a run directory holding the fixture's run.json and the
// given execution log and monitoring text.
func writeRun(t *testing.T, f *fixture, log, mon string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	info, err := json.Marshal(f.run.Info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"run.json": string(info), "execution.log": log, "monitoring.csv": mon,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// appendTo appends text to one of a run directory's files, as a producer
// still writing the run does.
func appendTo(t *testing.T, dir, name, text string) {
	t.Helper()
	fh, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
}

// assemble builds a service without a listener, shut down when the test
// ends. Directories are polled every millisecond, and a run only ends once
// its content is complete or its follow stops.
func assemble(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	cfg.Poll, cfg.Idle = time.Millisecond, time.Hour
	srv, err := service.Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// serveRun follows the fixture's whole run as the service's pinned run, with
// cfg.Engine as the engine template, and returns once the run has finished.
func serveRun(t *testing.T, cfg service.Config) (*service.Server, *stream.Engine) {
	t.Helper()
	f := getFixture(t)
	srv := assemble(t, cfg)
	if err := srv.Fleet().Follow(writeRun(t, f, f.logText, f.monText), "", nil); err != nil {
		t.Fatal(err)
	}
	_, e, _ := srv.Fleet().Pinned()
	return srv, e
}

// serveDir follows dir as the service's pinned run in the background until
// the test ends, returning once run.json has pinned it.
func serveDir(t *testing.T, cfg service.Config, dir string) (*service.Server, *stream.Engine) {
	t.Helper()
	srv := assemble(t, cfg)
	stop, followed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(followed)
		_ = srv.Fleet().Follow(dir, "", stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-followed
	})
	var e *stream.Engine
	waitFor(t, "run pinned", func() bool {
		_, e, _ = srv.Fleet().Pinned()
		return e != nil
	})
	return srv, e
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// finalized reports whether the engine has finalized.
func finalized(e *stream.Engine) bool {
	_, done, _ := e.FinalStatus()
	return done
}

// TestServerEndpoints drives the HTTP layer mid-run and after finalization:
// the live endpoints must serve while ingest is still in progress, and
// /report must converge to the batch-identical text.
func TestServerEndpoints(t *testing.T) {
	f := getFixture(t)
	// Half the log written: the run is "still executing".
	half := len(f.logText) / 2
	half += strings.IndexByte(f.logText[half:], '\n') + 1
	dir := writeRun(t, f, f.logText[:half], "")
	srv, e := serveDir(t, service.Config{Engine: stream.Config{
		Models: f.models, RetainForFinal: true, WindowSlices: 8,
		ExpectedInstances: len(f.monitoring),
	}}, dir)
	waitFor(t, "events ingested", func() bool { return e.Stats().Events > 0 })

	code, body, hdr := get(t, srv, "/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile mid-run: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/profile content type %q", ct)
	}
	var snap stream.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/profile not JSON: %v", err)
	}
	if snap.Finalized {
		t.Fatal("mid-run snapshot claims finalized")
	}
	if snap.Stats.Events == 0 || len(snap.OpenPhases) == 0 {
		t.Fatalf("mid-run snapshot empty: %d events, %d open phases",
			snap.Stats.Events, len(snap.OpenPhases))
	}

	code, body, hdr = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics mid-run: %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics content type %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE grade10_events_total counter",
		"grade10_open_phases",
		"grade10_watermark_seconds",
		"grade10_finalized 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	if code, _, _ = get(t, srv, "/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("/report before finalize: %d, want 503", code)
	}
	if code, _, _ = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if code, _, _ = get(t, srv, "/phases"); code != http.StatusOK {
		t.Fatalf("/phases: %d", code)
	}
	if code, _, _ = get(t, srv, "/bottlenecks"); code != http.StatusOK {
		t.Fatalf("/bottlenecks: %d", code)
	}
	if code, _, _ = get(t, srv, "/windows"); code != http.StatusOK {
		t.Fatalf("/windows: %d", code)
	}
	if code, _, _ = get(t, srv, "/no-such-endpoint"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}

	// Finish writing the run; it finalizes once its content is complete:
	// /report must match batch byte-for-byte.
	appendTo(t, dir, "execution.log", f.logText[half:])
	appendTo(t, dir, "monitoring.csv", f.monText)
	waitFor(t, "finalize", func() bool { return finalized(e) })

	code, body, _ = get(t, srv, "/report")
	if code != http.StatusOK {
		t.Fatalf("/report after finalize: %d", code)
	}
	if body != f.batchText {
		t.Fatal("/report text differs from batch report")
	}
	// Cached render: second fetch identical.
	if _, body2, _ := get(t, srv, "/report"); body2 != body {
		t.Fatal("/report not stable across fetches")
	}

	_, body, _ = get(t, srv, "/metrics")
	if !strings.Contains(body, "grade10_finalized 1") {
		t.Fatal("/metrics does not report finalization")
	}
	if !strings.Contains(body, "grade10_resource_utilization{instance=\"cpu@0\"}") {
		t.Fatalf("/metrics missing per-instance utilization:\n%s", body)
	}
}

// TestServerBoundedReport verifies the bounded-mode /report contract: 503
// with a pointer at the live endpoints, not an error or a wrong report.
func TestServerBoundedReport(t *testing.T) {
	f := getFixture(t)
	srv, _ := serveRun(t, service.Config{Engine: stream.Config{Models: f.models}})
	code, body, _ := get(t, srv, "/report")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("bounded /report: %d, want 503", code)
	}
	if !strings.Contains(body, "bounded") {
		t.Fatalf("bounded /report body: %q", body)
	}
}
