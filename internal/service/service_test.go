package service_test

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grade10/internal/service"
	"grade10/internal/stream"
)

// status issues one GET against a handler.
func status(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestFleetConcurrentScrapes runs eight /metrics scrapes at once, over and
// over, against a fleet with active runs. Every scrape runs the per-run
// staleness hook, which re-points its series at the active set; concurrent
// hooks must not race (run under -race). The per-run endpoints resolve
// ?run= against the same active runs.
func TestFleetConcurrentScrapes(t *testing.T) {
	quiet, _ := fixture(t)
	root := t.TempDir()
	// Every run withholds its last monitoring row, so its content never
	// completes, and a long idle keeps it active after it has ingested
	// everything. The watch directory makes it a fleet; runs arrive over
	// POST.
	srv, err := service.Assemble(service.Config{
		Watch: t.TempDir(), MaxActive: 4, QueueDepth: 4, Poll: testPoll, Idle: time.Hour, UI: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	runs := []string{"a", "b", "c"}
	for _, name := range runs {
		dir := filepath.Join(root, name)
		copyRun(t, quiet, dir)
		withholdLastMonitoringRow(t, dir)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/runs", strings.NewReader(`{"dir": "`+dir+`"}`)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /fleet/runs %s = %d: %s", dir, rec.Code, rec.Body)
		}
	}
	waitFor(t, "every run ingesting", func() bool {
		for _, name := range runs {
			if code, _ := status(srv, "/profile?run="+name); code != http.StatusOK {
				return false
			}
		}
		return true
	})

	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `grade10_fleet_run_staleness_seconds{run="b"}`) {
					t.Errorf("/metrics = %d without run b's staleness series", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}

	for path, want := range map[string]int{
		"/profile":              http.StatusBadRequest,
		"/profile?run=nope":     http.StatusNotFound,
		"/stats?run=a":          http.StatusOK,
		"/report?run=a":         http.StatusServiceUnavailable, // still open
		"/api/heatmap?run=b":    http.StatusOK,
		"/api/overview?run=c":   http.StatusOK,
		"/api/overview?run=zzz": http.StatusNotFound,
	} {
		if code, body := status(srv, path); code != want {
			t.Errorf("GET %s = %d, want %d: %s", path, code, want, body)
		}
	}
}

// TestShutdownWithOpenSSE: an open /api/events subscriber must not hold
// Shutdown for its budget — the broker ends SSE streams before the HTTP
// server drains.
func TestShutdownWithOpenSSE(t *testing.T) {
	quiet, _ := fixture(t)
	const budget = 3 * time.Second
	srv, err := service.Assemble(service.Config{
		Addr: "127.0.0.1:0", UI: true,
		Engine: stream.Config{RetainForFinal: true}, ShutdownTimeout: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	followWritten(t, srv, quiet)
	resp, err := http.Get("http://" + srv.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != "event: hello\n" {
		t.Fatalf("first SSE line %q (%v)", line, err)
	}

	start := time.Now()
	srv.Shutdown()
	if took := time.Since(start); took > budget/3 {
		t.Fatalf("Shutdown took %s with an SSE subscriber open (budget %s)", took, budget)
	}
}

// TestSingleRunBeforeMetadata: until run.json reveals the models, the
// per-run endpoints answer 503 while liveness, metrics, and the index serve.
func TestSingleRunBeforeMetadata(t *testing.T) {
	srv, err := service.Assemble(service.Config{Dir: t.TempDir(), UI: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for path, want := range map[string]int{
		"/profile":      http.StatusServiceUnavailable,
		"/report":       http.StatusServiceUnavailable,
		"/api/overview": http.StatusServiceUnavailable,
		"/healthz":      http.StatusOK,
		"/metrics":      http.StatusOK,
		"/":             http.StatusOK,
	} {
		if code, body := status(srv, path); code != want {
			t.Errorf("GET %s = %d, want %d: %s", path, code, want, body)
		}
	}
	if _, body := status(srv, "/profile"); !strings.Contains(body, "run.json") {
		t.Errorf("/profile before metadata: %q", body)
	}
}

// withholdLastMonitoringRow drops the last row of a run directory's
// monitoring.csv: one feed then stops a sample short of the run's end_ns, so
// the run's content never completes and only stop or Idle ends its follow.
func withholdLastMonitoringRow(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "monitoring.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(string(data), "\n")
	if len(rows) < 3 || rows[len(rows)-1] != "" {
		t.Fatalf("%s: want a header and terminated rows", path)
	}
	if err := os.WriteFile(path, []byte(strings.Join(rows[:len(rows)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
}
