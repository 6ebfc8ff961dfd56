package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/service"
)

// fleetService assembles a fleet-mode service without a listener. A watch
// directory makes it a fleet; unless the test calls Run, runs arrive only
// over POST /fleet/runs.
func fleetService(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	if cfg.Watch == "" {
		cfg.Watch = t.TempDir()
	}
	if cfg.Poll == 0 {
		cfg.Poll, cfg.Idle = fleet.TestPoll, fleet.TestIdle
	}
	svc, err := service.Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Shutdown)
	return svc
}

// register POSTs a run directory to /fleet/runs and returns the admission
// decision the service answers with.
func register(t *testing.T, h http.Handler, dir string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"dir": dir})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/runs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
		t.Fatalf("POST /fleet/runs %s = %d: %s", dir, rec.Code, rec.Body)
	}
	var out struct {
		Decision string `json:"decision"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST /fleet/runs answer: %v: %s", err, rec.Body)
	}
	return out.Decision
}

// waitSettled polls GET /fleet/runs until want runs are done, failed or
// stalled.
func waitSettled(t *testing.T, h http.Handler, want int) fleet.FleetSnapshot {
	t.Helper()
	return fleet.WaitSettledBy(t, func() fleet.FleetSnapshot {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet/runs", nil))
		var snap fleet.FleetSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("GET /fleet/runs: %v: %s", err, rec.Body)
		}
		return snap
	}, want, time.Minute)
}

// TestFleetServerIndexJSON: GET / on the fleet server answers the JSON
// endpoint index; unknown paths answer 404; the per-route HTTP request
// families appear on /metrics.
func TestFleetServerIndexJSON(t *testing.T) {
	srv := fleetService(t, service.Config{MaxActive: 1, QueueDepth: 1})

	do := func(path string) (int, string, http.Header) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String(), rec.Header()
	}

	code, body, hdr := do("/")
	if code != http.StatusOK {
		t.Fatalf("GET /: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("index content type %q", ct)
	}
	var idx struct {
		Service   string      `json:"service"`
		Endpoints []obs.Route `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, body)
	}
	paths := map[string]bool{}
	for _, rt := range idx.Endpoints {
		paths[rt.Path] = true
		if rt.Desc == "" {
			t.Errorf("route %q has no description", rt.Path)
		}
	}
	for _, want := range []string{"/fleet/runs", "/fleet/bottlenecks",
		"/fleet/regressions", "/fleet/blame", "/metrics", "/healthz", "/"} {
		if !paths[want] {
			t.Errorf("index missing %q", want)
		}
	}

	if code, _, _ := do("/definitely-not-mounted"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}

	_, body, _ = do("/metrics")
	for _, want := range []string{
		`grade10_http_requests_total{path="/",code="200"} 1`,
		`grade10_http_requests_total{path="unmatched",code="404"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFleetServerEndpoints drives the HTTP surface end to end: watch-dir
// discovery, POST registration, cross-run endpoints, and metrics.
func TestFleetServerEndpoints(t *testing.T) {
	quietDir, noisyDir := fleet.FixtureDirs(t)
	root := t.TempDir()
	watch := filepath.Join(root, "watch")
	if err := os.MkdirAll(watch, 0o755); err != nil {
		t.Fatal(err)
	}
	srv := fleetService(t, service.Config{
		Watch: watch, MaxActive: 2, QueueDepth: 8,
		StoreDir: filepath.Join(root, "archive"),
	})
	stop := make(chan struct{})
	watchDone := make(chan error, 1)
	go func() { watchDone <- srv.Run(stop) }()
	defer func() {
		close(stop)
		if err := <-watchDone; err != nil {
			t.Errorf("watch: %v", err)
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Stage each run outside the watch dir and rename it in atomically, quiet
	// first, so the regression diff sees the baseline archived before the
	// slow variant.
	shared := []rundir.Placement{{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"}}
	fleet.StageRun(t, quietDir, root, filepath.Join(watch, "quiet"), shared)
	waitSettled(t, srv, 1)
	fleet.StageRun(t, noisyDir, root, filepath.Join(watch, "noisy"), shared)
	waitSettled(t, srv, 2)

	var snap fleet.FleetSnapshot
	fleet.GetJSON(t, ts.URL+"/fleet/runs", &snap)
	if len(snap.Runs) != 2 {
		t.Fatalf("fleet/runs = %+v, want quiet and noisy", snap.Runs)
	}
	for _, r := range snap.Runs {
		if r.Status != fleet.StatusDone || r.ArchiveID == "" {
			t.Fatalf("run %+v not done+archived", r)
		}
	}

	var bt struct {
		Bottlenecks []fleet.FleetBottleneck `json:"bottlenecks"`
	}
	fleet.GetJSON(t, ts.URL+"/fleet/bottlenecks?k=5", &bt)
	if len(bt.Bottlenecks) > 5 {
		t.Fatalf("k=5 returned %d bottlenecks", len(bt.Bottlenecks))
	}

	// quiet and noisy share (engine, job, workers): exactly one diff pair,
	// and the noisy run is slower, so the verdict is a regression.
	var rg struct {
		Regressions []profdiff.Regression `json:"regressions"`
	}
	fleet.GetJSON(t, ts.URL+"/fleet/regressions?k=5", &rg)
	if len(rg.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want one pair", rg.Regressions)
	}
	if rg.Regressions[0].Verdict != "regressed" {
		t.Fatalf("verdict = %s, want regressed (noise slows the run)", rg.Regressions[0].Verdict)
	}

	var rep fleet.BlameReport
	fleet.GetJSON(t, ts.URL+"/fleet/blame?run=quiet", &rep)
	if rep.TotalContendedNS <= 0 || len(rep.Neighbors) == 0 {
		t.Fatalf("blame = %+v, want nonzero on noisy", rep)
	}
	if resp, err := http.Get(ts.URL + "/fleet/blame?run=missing"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("blame on unknown run: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	// POST registration (a third copy) is accepted and completes.
	third := filepath.Join(root, "third")
	fleet.CopyRun(t, quietDir, third, nil)
	body, _ := json.Marshal(map[string]string{"dir": third})
	resp, err := http.Post(ts.URL+"/fleet/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /fleet/runs = %s", resp.Status)
	}
	resp.Body.Close()
	waitSettled(t, srv, 3)

	// Metrics include the fleet families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"grade10_fleet_runs_active", "grade10_fleet_runs_queued", "grade10_fleet_runs_shed_total",
	} {
		if !bytes.Contains(mbody, []byte(family)) {
			t.Fatalf("metrics missing %s:\n%s", family, mbody)
		}
	}
}

// sseFrames subscribes to a service's SSE stream and collects every frame's
// event name and data line until the test ends.
type sseFrames struct {
	mu     sync.Mutex
	frames [][2]string
}

func subscribeSSE(t *testing.T, url string) *sseFrames {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	s := &sseFrames{}
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				s.mu.Lock()
				s.frames = append(s.frames, [2]string{event, strings.TrimPrefix(line, "data: ")})
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// alertEvents returns every alert event delivered so far.
func (s *sseFrames) alertEvents(t *testing.T) []alert.Event {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []alert.Event
	for _, fr := range s.frames {
		if fr[0] != "alert" {
			continue
		}
		var evs []alert.Event
		if err := json.Unmarshal([]byte(fr[1]), &evs); err != nil {
			t.Fatalf("alert frame not JSON: %v\n%s", err, fr[1])
		}
		out = append(out, evs...)
	}
	return out
}

// TestFleetAlertFiringResolve is the record-path lifecycle end to end: a
// quiet run archived as history, baselines learned from the archive, then a
// noisy re-run of the same job fires a duration-regression rule — visible on
// /alerts, as ALERTS series on /metrics, and as an `event: alert` SSE frame
// — and a subsequent clean run resolves it.
func TestFleetAlertFiringResolve(t *testing.T) {
	quietDir, noisyDir := fleet.FixtureDirs(t)
	root := t.TempDir()
	archiveDir := filepath.Join(root, "archive")
	store, err := profstore.Open(archiveDir, profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: archive the quiet baseline through a plain fleet.
	f1 := fleet.New(fleet.Config{MaxActive: 1, QueueDepth: 2, Poll: fleet.TestPoll, Idle: fleet.TestIdle, Archive: store})
	base := filepath.Join(root, "base")
	fleet.CopyRun(t, quietDir, base, nil)
	if _, _, err := f1.Register(base); err != nil {
		t.Fatal(err)
	}
	fleet.WaitSettledBy(t, f1.Snapshot, 1, time.Minute)
	if err := f1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the rules of the former CI alert smoke. The noisy variant
	// scales every compute cost 2.5x, so the compute-thread regression rule
	// fires; the noisy log parses cleanly, so the threshold rule stays quiet.
	rules, err := alert.ParseRules(strings.NewReader(
		"alert compute-regressed severity critical when phase=/bfs/execute/superstep/worker/compute/thread regressed > 10% vs baseline\n" +
			"alert parse-degraded severity critical when parse_errors > 0\n"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 3: the service learns the same baselines from the archive.
	srv := fleetService(t, service.Config{
		MaxActive: 1, QueueDepth: 2, StoreDir: archiveDir, AlertRules: rules, UI: true,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after the SSE subscription ends
	sse := subscribeSSE(t, ts.URL+"/api/events")

	// Noisy run: the regression fires.
	noisy := filepath.Join(root, "noisy")
	fleet.CopyRun(t, noisyDir, noisy, nil)
	register(t, srv, noisy)
	waitSettled(t, srv, 1)
	var snap alert.Snapshot
	fleet.GetJSON(t, ts.URL+"/alerts", &snap)
	if snap.Firing != 1 || len(snap.Instances) == 0 {
		t.Fatalf("/alerts: firing = %d, want exactly 1: %+v", snap.Firing, snap)
	}
	if inst := snap.Instances[0]; inst.Rule != "compute-regressed" || inst.State != alert.StateFiring ||
		inst.Run != "noisy" || inst.ExplainQuery == "" {
		t.Errorf("first instance = %+v, want compute-regressed firing on the noisy run with an explain query", inst)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`ALERTS{alertname="compute-regressed",severity="critical",alertstate="firing"} 1`,
		"grade10_alerts_firing 1",
		"grade10_build_info{version=",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sawFiring := false; !sawFiring; {
		for _, tr := range sse.alertEvents(t) {
			sawFiring = sawFiring || tr.To == alert.StateFiring
		}
		if !sawFiring && time.Now().After(deadline) {
			t.Fatal("no firing transition reached the SSE stream")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Clean run: back at baseline, everything that fired resolves.
	clean := filepath.Join(root, "clean")
	fleet.CopyRun(t, quietDir, clean, nil)
	register(t, srv, clean)
	waitSettled(t, srv, 2)
	fleet.GetJSON(t, ts.URL+"/alerts", &snap)
	if snap.Firing != 0 {
		t.Fatalf("firing = %d after the clean run, want 0: %+v", snap.Firing, snap)
	}
	if snap.Resolved == 0 {
		t.Fatalf("/alerts shows no resolved instances after the clean run: %+v", snap)
	}
}

// TestFleetHealthzHealthy: a fleet whose runs all finished cleanly answers
// 200 with an empty reason list.
func TestFleetHealthzHealthy(t *testing.T) {
	quietDir, _ := fleet.FixtureDirs(t)
	srv := fleetService(t, service.Config{MaxActive: 1, QueueDepth: 2})
	dir := filepath.Join(t.TempDir(), "ok-run")
	fleet.CopyRun(t, quietDir, dir, nil)
	register(t, srv, dir)
	waitSettled(t, srv, 1)

	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s, want 200", resp.Status)
	}
	var h fleet.HealthView
	fleet.GetJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || len(h.Reasons) != 0 {
		t.Fatalf("health = %+v, want ok with no reasons", h)
	}
}

// TestFleetHealthzDegraded: a stalled run and a shed registration each
// surface as a reason, and the endpoint answers 503.
func TestFleetHealthzDegraded(t *testing.T) {
	srv := fleetService(t, service.Config{MaxActive: 1, QueueDepth: 1, StallTimeout: 30 * time.Millisecond})
	mkdir := func(name string) string {
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	if d := register(t, srv, mkdir("empty-run")); d != fleet.DecisionActive.String() {
		t.Fatalf("register = %s, want active", d)
	}
	// A second empty run fills the queue; a third overflows it: shed.
	if d := register(t, srv, mkdir("queued-run")); d != fleet.DecisionQueued.String() {
		t.Fatalf("second register = %s, want queued", d)
	}
	if d := register(t, srv, mkdir("shed-run")); d != fleet.DecisionShed.String() {
		t.Fatalf("overflow register = %s, want shed", d)
	}
	// Both empty runs stall in turn (the queued one is promoted when the
	// watchdog tears the first down).
	waitSettled(t, srv, 2)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/healthz content type %q, want application/json", ct)
	}
	var h fleet.HealthView
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz body: %v: %s", err, rec.Body)
	}
	if h.Status != "degraded" || len(h.Reasons) != 3 {
		t.Fatalf("health = %+v, want degraded with two stalls + one shed", h)
	}
	joined := strings.Join(h.Reasons, "\n")
	if !strings.Contains(joined, "stalled") || !strings.Contains(joined, "shed") {
		t.Fatalf("reasons = %q", joined)
	}
}
