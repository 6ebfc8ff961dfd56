package ui_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/rundir"
	"grade10/internal/service"
	"grade10/internal/stream"
	"grade10/internal/ui"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// fixture is one small finished giraphsim run, serialized for the stream
// engine, shared across the UI tests.
type fixture struct {
	run        *workload.GiraphRun
	logText    string
	monText    string
	monitoring []cluster.ResourceSamples
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds := workload.Dataset{Name: "ui-test",
			Gen: func() *graph.Graph { return graph.RMAT(7, 8, 7) }}
		cfg := giraphsim.DefaultConfig()
		cfg.Workers = 2
		cfg.ThreadsPerWorker = 2
		run, err := workload.RunGiraph(workload.Spec{Dataset: ds, Algorithm: "bfs"}, cfg)
		if err != nil {
			fixErr = err
			return
		}
		monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start,
			run.Result.End, 10*vtime.Millisecond)
		if err != nil {
			fixErr = err
			return
		}
		var logBuf, monBuf bytes.Buffer
		if err := enginelog.Write(&logBuf, run.Result.Log); err != nil {
			fixErr = err
			return
		}
		if err := rundir.WriteMonitoring(&monBuf, monitoring); err != nil {
			fixErr = err
			return
		}
		fix = &fixture{run: run, logText: logBuf.String(),
			monText: monBuf.String(), monitoring: monitoring}
	})
	if fixErr != nil {
		t.Fatalf("building fixture: %v", fixErr)
	}
	return fix
}

// engineConfig is a retained engine at the given parallelism.
func engineConfig(f *fixture, parallelism int) stream.Config {
	return stream.Config{
		Models: f.run.Models, RetainForFinal: true,
		WindowSlices: 16, MaxWindows: 64,
		ExpectedInstances: len(f.monitoring), Parallelism: parallelism,
	}
}

// engineAt builds an engineConfig engine and feeds it the whole run
// (without finalizing).
func engineAt(t *testing.T, f *fixture, parallelism int) *stream.Engine {
	t.Helper()
	e, err := stream.New(engineConfig(f, parallelism))
	if err != nil {
		t.Fatal(err)
	}
	feedRun(e, f)
	return e
}

// feedRun feeds the whole run into e (without finalizing).
func feedRun(e *stream.Engine, f *fixture) {
	e.IngestChunk([]byte(f.logText))
	e.LogDone()
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()
}

// single is a UI over one engine, as the service mounts it for its pinned
// run.
func single(e *stream.Engine) *ui.Server {
	return ui.NewServer(ui.Config{
		Resolve: func(http.ResponseWriter, *http.Request) (*stream.Engine, string, bool) { return e, "", true },
	})
}

func getBody(t *testing.T, h http.Handler, path string) (int, []byte, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes(), rec.Header()
}

// checkGolden compares got to testdata/<name>, rewriting the file when
// GRADE10_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GRADE10_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with GRADE10_UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s drifted from golden (GRADE10_UPDATE_GOLDEN=1 to accept).\ngot %d bytes, want %d",
			name, len(got), len(want))
	}
}

// TestViewModelDeterminism is the UI's determinism contract: /api/heatmap
// and /api/timeline must serve byte-identical JSON at parallelism 1 and 8,
// both mid-run (streamed window aggregates) and after finalization (exact
// profile), and the finalized bytes must match the goldens.
func TestViewModelDeterminism(t *testing.T) {
	f := getFixture(t)
	e1 := engineAt(t, f, 1)
	e8 := engineAt(t, f, 8)
	s1 := single(e1)
	s8 := single(e8)

	for _, path := range []string{"/api/heatmap", "/api/timeline", "/api/comms", "/api/overview"} {
		c1, b1, _ := getBody(t, s1, path)
		c8, b8, _ := getBody(t, s8, path)
		if c1 != http.StatusOK || c8 != http.StatusOK {
			t.Fatalf("mid-run %s: %d / %d", path, c1, c8)
		}
		if !bytes.Equal(b1, b8) {
			t.Errorf("mid-run %s differs between parallelism 1 and 8", path)
		}
	}

	if _, err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := e8.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, golden string }{
		{"/api/heatmap", "heatmap.golden.json"},
		{"/api/timeline", "timeline.golden.json"},
	} {
		c1, b1, hdr := getBody(t, s1, tc.path)
		c8, b8, _ := getBody(t, s8, tc.path)
		if c1 != http.StatusOK || c8 != http.StatusOK {
			t.Fatalf("final %s: %d / %d", tc.path, c1, c8)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content type %q", tc.path, ct)
		}
		if !bytes.Equal(b1, b8) {
			t.Errorf("final %s differs between parallelism 1 and 8", tc.path)
		}
		if len(bytes.TrimSpace(b1)) <= 2 {
			t.Fatalf("final %s is empty: %s", tc.path, b1)
		}
		checkGolden(t, tc.golden, b1)
	}
}

// TestExplainMatchesHeatmapCell is the click-through contract: the explain
// query attached to a finalized heatmap cell must yield a non-empty
// derivation chain whose total equals the cell's value.
func TestExplainMatchesHeatmapCell(t *testing.T) {
	f := getFixture(t)
	e := engineAt(t, f, 2)
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	s := single(e)

	code, body, _ := getBody(t, s, "/api/heatmap")
	if code != http.StatusOK {
		t.Fatalf("/api/heatmap: %d", code)
	}
	var hm ui.Heatmap
	mustUnmarshal(t, body, &hm)
	if hm.Source != "final" {
		t.Fatalf("finalized heatmap source = %q, want final", hm.Source)
	}

	checked := 0
	for _, row := range hm.Rows {
		if !row.Leaf {
			continue
		}
		for _, cell := range row.Cells {
			if cell.Query == "" || cell.UnitSeconds <= 0 {
				continue
			}
			derivs, err := e.Explain(cell.Query)
			if err != nil {
				t.Fatalf("explain %q: %v", cell.Query, err)
			}
			if len(derivs) != 1 || !derivs[0].Final {
				t.Fatalf("explain %q: want one final derivation, got %d", cell.Query, len(derivs))
			}
			d := derivs[0].Derivation
			if len(d.Instances) == 0 {
				t.Fatalf("explain %q: empty derivation chain", cell.Query)
			}
			if !closeTo(d.AttributedUnitSeconds, cell.UnitSeconds) {
				t.Errorf("explain %q chain sums to %.9f, heatmap cell is %.9f",
					cell.Query, d.AttributedUnitSeconds, cell.UnitSeconds)
			}
			checked++
			if checked >= 8 {
				return
			}
		}
	}
	if checked == 0 {
		t.Fatal("no leaf heatmap cell carried an explain query")
	}
}

func closeTo(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}

// TestMountUI is the host integration: the UI mounted on the service's
// server answers /ui/ and /api/* through the host mux, the endpoint index
// lists the UI routes, and the HTTP middleware counts them per route.
func TestMountUI(t *testing.T) {
	f := getFixture(t)
	host, err := service.Assemble(service.Config{UI: true, Engine: engineConfig(f, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Shutdown()
	dir := filepath.Join(t.TempDir(), "run")
	run := &rundir.Run{Log: f.run.Result.Log, Monitoring: f.monitoring, Info: rundir.Info{
		StartNS: int64(f.run.Result.Start), EndNS: int64(f.run.Result.End),
	}}
	if err := rundir.SaveOpts(dir, run, rundir.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := host.Fleet().Follow(dir, "", nil); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := getBody(t, host, "/ui/")
	if code != http.StatusOK {
		t.Fatalf("/ui/: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/ui/ content type %q", ct)
	}
	if !bytes.Contains(body, []byte("<html")) {
		t.Fatal("/ui/ did not serve HTML")
	}

	if code, _, _ := getBody(t, host, "/api/overview"); code != http.StatusOK {
		t.Fatalf("/api/overview via host: %d", code)
	}

	_, idx, _ := getBody(t, host, "/")
	for _, want := range []string{`"/ui/"`, `"/api/heatmap"`, `"/api/timeline"`} {
		if !bytes.Contains(idx, []byte(want)) {
			t.Errorf("host index missing %s", want)
		}
	}

	_, metrics, _ := getBody(t, host, "/metrics")
	for _, want := range []string{
		`grade10_http_requests_total{path="/ui/",code="200"} 1`,
		`grade10_http_requests_total{path="/api/overview",code="200"} 1`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAssets: embedded assets revalidate via content-hash ETags (matching
// If-None-Match answers 304 with no body) and ship zero external URLs, so
// the profiler works air-gapped.
func TestAssets(t *testing.T) {
	f := getFixture(t)
	s := single(engineAt(t, f, 1))

	for _, path := range []string{"/ui/", "/ui/app.js", "/ui/style.css"} {
		code, body, hdr := getBody(t, s, path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", path, code)
		}
		etag := hdr.Get("ETag")
		if etag == "" || hdr.Get("Cache-Control") != "no-cache" {
			t.Fatalf("%s: ETag=%q Cache-Control=%q", path, etag, hdr.Get("Cache-Control"))
		}
		for _, banned := range []string{"http://", "https://"} {
			if bytes.Contains(body, []byte(banned)) {
				t.Errorf("%s references an external URL (%s): assets must be self-contained", path, banned)
			}
		}

		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", etag)
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("%s with If-None-Match: %d, want 304", path, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%s: 304 carried a %d-byte body", path, rec.Body.Len())
		}
	}

	if code, _, _ := getBody(t, s, "/ui/nope.js"); code != http.StatusNotFound {
		t.Fatalf("unknown asset: %d, want 404", code)
	}
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
}
