package flight

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grade10/internal/alert"
	"grade10/internal/obs"
	"grade10/internal/stream"
)

// testRings builds a Config whose rings all hold data, so a capture
// exercises every bundle section.
func testRings() Config {
	tracer := obs.NewTracer()
	for i := 0; i < 3; i++ {
		s := tracer.StartSpan("window-flush", i)
		s.SetItems(int64(i))
		s.End()
	}
	ring := obs.NewLogRing()
	logger, err := obs.NewLoggerWithRing(io.Discard, "test", "text", "info", ring)
	if err != nil {
		panic(err)
	}
	logger.Info("bundle test record", "k", "v")
	logger.Debug("below console level")

	return Config{
		Tracer: tracer, LogRing: ring,
		Windows: func() []RunWindows {
			return []RunWindows{{Run: "run-a", Windows: []*stream.WindowResult{{Index: 1, StartSeconds: 0, EndSeconds: 1}}}}
		},
	}
}

// fakeClock is an injectable Now for rate-limit tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

// mustCapture wraps CaptureSync's two-value return for tests.
func mustCapture(t *testing.T) func(*Manifest, error) *Manifest {
	return func(m *Manifest, err error) *Manifest {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestBundleCaptureContents: one capture writes a self-contained bundle with
// every section present, a manifest listing exactly the written files, and a
// trace.json that loads as a Chrome/Perfetto trace (ValidateTrace already
// gated the write; the test re-checks the on-disk artifact parses).
func TestBundleCaptureContents(t *testing.T) {
	dir := t.TempDir()
	cfg := testRings()
	rules, err := alert.ParseRules(strings.NewReader("alert hot severity critical when coverage < 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	ev := alert.NewEvaluator(rules, nil)
	ev.Eval(alert.Obs{Tick: 1, Scalars: map[string]float64{"coverage": 0.1}})

	cfg.Dir = dir
	cfg.CPUProfile = -1 // skip the sampling sleep in tests
	cfg.Alerts = ev
	cfg.Overhead = func() []obs.RunOverhead {
		return []obs.RunOverhead{{Run: "run-a", OverheadSnapshot: obs.OverheadSnapshot{WallSeconds: 0.5}}}
	}
	c, err := NewCapturer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m := mustCapture(t)(c.CaptureSync(TriggerAlert, "alert hot firing", []string{"run-a"}))
	if len(m.Notes) != 0 {
		t.Errorf("capture notes (sections that failed): %v", m.Notes)
	}
	want := []string{
		"alerts.json", "goroutine.pprof", "goroutines.txt",
		"heap.pprof", "logs.json", "mutex.pprof", "overhead.json", "trace.json",
		"windows.json",
	}
	if fmt.Sprint(m.Files) != fmt.Sprint(want) {
		t.Fatalf("manifest files = %v, want %v", m.Files, want)
	}
	if m.Trigger != TriggerAlert || m.Version == "" || m.GoVersion == "" {
		t.Errorf("manifest provenance incomplete: %+v", m)
	}

	bdir := filepath.Join(dir, m.ID)
	for _, name := range append(want, "manifest.json") {
		info, err := os.Stat(filepath.Join(bdir, name))
		if err != nil {
			t.Fatalf("bundle file %s: %v", name, err)
		}
		if info.Size() == 0 {
			t.Errorf("bundle file %s is empty", name)
		}
	}

	// trace.json must be a loadable Chrome trace: {"traceEvents": [...]}.
	data, err := os.ReadFile(filepath.Join(bdir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace.json not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace.json has no events despite recorded spans")
	}

	// logs.json holds the teed records, including the sub-console debug one.
	data, err = os.ReadFile(filepath.Join(bdir, "logs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var logs struct {
		Records []obs.LogRecord `json:"records"`
	}
	if err := json.Unmarshal(data, &logs); err != nil {
		t.Fatal(err)
	}
	if len(logs.Records) != 2 || logs.Records[1].Msg != "below console level" {
		t.Fatalf("logs.json records = %+v", logs.Records)
	}

	// windows.json carries each run's window ring.
	data, err = os.ReadFile(filepath.Join(bdir, "windows.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wins []RunWindows
	if err := json.Unmarshal(data, &wins); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Run != "run-a" || len(wins[0].Windows) != 1 {
		t.Fatalf("windows.json = %+v", wins)
	}
}

// TestBundleRateLimitExactlyOnce: repeated triggers of one kind inside
// MinInterval capture exactly one bundle; a different kind and an elapsed
// interval each admit again.
func TestBundleRateLimitExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c, err := NewCapturer(Config{
		Dir: dir, CPUProfile: -1, MinInterval: time.Minute, Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustCapture(t)(c.CaptureSync(TriggerAlert, "first", nil))
	for i := 0; i < 5; i++ {
		clock.advance(time.Second)
		if _, err := c.CaptureSync(TriggerAlert, "suppressed", nil); err != ErrRateLimited {
			t.Fatalf("trigger %d: err = %v, want ErrRateLimited", i, err)
		}
	}
	if got := len(c.List()); got != 1 {
		t.Fatalf("%d bundles after hammering one trigger kind, want exactly 1", got)
	}

	// A different kind has its own limiter slot.
	mustCapture(t)(c.CaptureSync(TriggerStall, "other kind", nil))
	// And the original kind re-admits once the interval elapses.
	clock.advance(time.Minute)
	mustCapture(t)(c.CaptureSync(TriggerAlert, "after interval", nil))
	if got := len(c.List()); got != 3 {
		t.Fatalf("%d bundles, want 3", got)
	}
}

// TestBundleRetentionEvictsOldest: past MaxBundles the oldest bundles are
// removed first; the sequence numbering keeps rising and survives a capturer
// restart over the same directory.
func TestBundleRetentionEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Dir: dir, MaxBundles: 3, CPUProfile: -1, MinInterval: time.Millisecond, Now: clock.now}
	c, err := NewCapturer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 6; i++ {
		clock.advance(time.Second)
		mustCapture(t)(c.CaptureSync(TriggerManual, fmt.Sprintf("capture %d", i), nil))
	}
	list := c.List()
	if len(list) != 3 {
		t.Fatalf("retained %d bundles, want 3", len(list))
	}
	for i, m := range list {
		if want := 3 + i; m.Seq != want {
			t.Errorf("retained[%d].Seq = %d, want %d (oldest-first eviction)", i, m.Seq, want)
		}
	}
	c.Close()

	// A restarted capturer resumes numbering past what is on disk.
	c2, err := NewCapturer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	clock.advance(time.Second)
	m := mustCapture(t)(c2.CaptureSync(TriggerManual, "after restart", nil))
	if m.Seq != 6 {
		t.Fatalf("restarted capturer minted seq %d, want 6", m.Seq)
	}
}

// TestAsyncTriggerCaptures: the non-blocking Trigger path lands a bundle via
// the worker goroutine, and Close drains it.
func TestAsyncTriggerCaptures(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCapturer(Config{Dir: dir, CPUProfile: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Trigger(TriggerStall, "stalled run", []string{"run-b"})
	c.Close() // drains the queue
	list := c.List()
	if len(list) != 1 || list[0].Trigger != TriggerStall || len(list[0].Runs) != 1 {
		t.Fatalf("bundles after async trigger = %+v", list)
	}
}

// TestBundlesHandler: the list endpoint serves manifests; the fetch endpoint
// streams a tar whose members are the bundle files; traversal-looking IDs are
// rejected.
func TestBundlesHandler(t *testing.T) {
	dir := t.TempDir()
	cfg := testRings()
	cfg.Dir, cfg.CPUProfile = dir, -1
	c, err := NewCapturer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := mustCapture(t)(c.CaptureSync(TriggerManual, "for http", nil))

	h := BundlesHandler(c)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundles", nil))
	var listing struct {
		Bundles []Manifest `json:"bundles"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Bundles) != 1 || listing.Bundles[0].ID != m.ID {
		t.Fatalf("listing = %+v", listing)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundles/"+m.ID, nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-tar" {
		t.Fatalf("fetch content type %q", ct)
	}
	tr := tar.NewReader(rr.Body)
	got := map[string]bool{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got[hdr.Name] = true
	}
	for _, name := range append(m.Files, "manifest.json") {
		if !got[m.ID+"/"+name] {
			t.Errorf("tar missing %s", name)
		}
	}

	for _, bad := range []string{"/debug/bundles/../etc", "/debug/bundles/a%2Fb"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", bad, nil))
		if rr.Code == 200 {
			t.Errorf("traversal id %q served 200", bad)
		}
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundles/999999-nope", nil))
	if rr.Code != 404 {
		t.Errorf("missing bundle served %d, want 404", rr.Code)
	}
}

// TestTriggerAndOverheadHandlers: POST /debug/bundle captures (429 when
// rate-limited, 405 on GET); /debug/overhead serves the runs array.
func TestTriggerAndOverheadHandlers(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c, err := NewCapturer(Config{Dir: dir, CPUProfile: -1, MinInterval: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	th := TriggerHandler(c)

	rr := httptest.NewRecorder()
	th.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/bundle", nil))
	if rr.Code != 405 {
		t.Fatalf("GET /debug/bundle = %d, want 405", rr.Code)
	}

	rr = httptest.NewRecorder()
	th.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/bundle?detail=ops", nil))
	if rr.Code != 200 {
		t.Fatalf("POST /debug/bundle = %d: %s", rr.Code, rr.Body.String())
	}
	var m Manifest
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Trigger != TriggerManual || m.Detail != "ops" {
		t.Fatalf("manual manifest = %+v", m)
	}

	rr = httptest.NewRecorder()
	th.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/bundle", nil))
	if rr.Code != 429 {
		t.Fatalf("rate-limited POST = %d, want 429", rr.Code)
	}

	oh := OverheadHandler(func() []obs.RunOverhead {
		return []obs.RunOverhead{{Run: "r1", OverheadSnapshot: obs.OverheadSnapshot{WallSeconds: 1.5, IngestBytes: 42}}}
	})
	rr = httptest.NewRecorder()
	oh.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/overhead", nil))
	var body struct {
		Runs []obs.RunOverhead `json:"runs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Runs) != 1 || body.Runs[0].Run != "r1" || body.Runs[0].IngestBytes != 42 {
		t.Fatalf("/debug/overhead = %+v", body)
	}
}

// TestLogsHandler: level and limit filters shape the response; bad inputs 400.
func TestLogsHandler(t *testing.T) {
	ring := obs.NewLogRing()
	logger, err := obs.NewLoggerWithRing(io.Discard, "t", "text", "info", ring)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("fine detail")
	logger.Info("normal")
	logger.Warn("trouble")
	h := LogsHandler(ring)

	get := func(query string) (int, []obs.LogRecord) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/logs"+query, nil))
		var body struct {
			Records []obs.LogRecord `json:"records"`
		}
		_ = json.Unmarshal(rr.Body.Bytes(), &body)
		return rr.Code, body.Records
	}

	if code, recs := get(""); code != 200 || len(recs) != 3 {
		t.Fatalf("GET /logs = %d with %d records, want 200 with 3", code, len(recs))
	}
	if code, recs := get("?level=warn"); code != 200 || len(recs) != 1 || recs[0].Msg != "trouble" {
		t.Fatalf("level=warn = %d %+v", code, recs)
	}
	if code, recs := get("?limit=1"); code != 200 || len(recs) != 1 || recs[0].Msg != "trouble" {
		t.Fatalf("limit=1 should keep newest, got %d %+v", code, recs)
	}
	if code, _ := get("?level=nope"); code != 400 {
		t.Fatalf("bad level = %d, want 400", code)
	}
	if code, _ := get("?limit=-1"); code != 400 {
		t.Fatalf("bad limit = %d, want 400", code)
	}
}
