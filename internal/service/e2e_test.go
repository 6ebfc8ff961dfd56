package service_test

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"grade10/internal/alert"
	"grade10/internal/cluster"
	"grade10/internal/experiments"
	"grade10/internal/fleet"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/obs"
	"grade10/internal/rundir"
	"grade10/internal/service"
	"grade10/internal/stream"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// The fixture is two runs of one giraph pagerank job co-scheduled on hosts
// m0 and m1: a quiet baseline and a noisy neighbor whose machines carry
// heavy injected OS noise (cluster.Noise), so its measured demand contends
// on the shared hosts.
var fx struct {
	once               sync.Once
	root, quiet, noisy string
	err                error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fx.root != "" {
		os.RemoveAll(fx.root)
	}
	os.Exit(code)
}

func fixture(t *testing.T) (quiet, noisy string) {
	t.Helper()
	fx.once.Do(func() {
		if fx.root, fx.err = os.MkdirTemp("", "grade10-service-fixture-"); fx.err != nil {
			return
		}
		fx.quiet, fx.noisy = filepath.Join(fx.root, "quiet"), filepath.Join(fx.root, "noisy")
		if fx.err = simulate(fx.quiet, 0); fx.err == nil {
			fx.err = simulate(fx.noisy, 7.5)
		}
	})
	if fx.err != nil {
		t.Fatalf("building fixture: %v", fx.err)
	}
	return fx.quiet, fx.noisy
}

// simulate runs the job as cmd/runsim does and saves the run directory.
func simulate(dir string, noise float64) error {
	g := graph.RMAT(10, 8, 3)
	prog, err := workload.NewProgram("pagerank", g)
	if err != nil {
		return err
	}
	cfg := experiments.GiraphConfig(1)
	cfg.Workers, cfg.ThreadsPerWorker = 2, 4
	if noise > 0 {
		cfg.OSNoiseCores = noise
	}
	res, err := giraphsim.Run(prog, graph.HashPartition(g, cfg.Workers), cfg)
	if err != nil {
		return err
	}
	mon, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
	if err != nil {
		return err
	}
	return rundir.SaveOpts(dir, &rundir.Run{
		Log: res.Log, Monitoring: mon,
		Info: rundir.Info{
			Engine: "giraph", Job: prog.Name(), Workers: cfg.Workers,
			ThreadsPerWorker: cfg.ThreadsPerWorker, Cores: cfg.Machine.Cores,
			NetBandwidth: cfg.Machine.NetBandwidth, DiskBandwidth: cfg.Machine.DiskBandwidth,
			StartNS: int64(res.Start), EndNS: int64(res.End),
			Placement: []rundir.Placement{{Machine: 0, Host: "m0"}, {Machine: 1, Host: "m1"}},
		},
	}, rundir.SaveOptions{})
}

// copyRun copies a fixture run directory so every service owns its inputs.
func copyRun(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run.json", "execution.log", "monitoring.csv"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const (
	testPoll = 5 * time.Millisecond
	testIdle = 50 * time.Millisecond
	// explainQ asks for the compute threads' CPU attribution.
	explainQ = "phase=/pagerank/execute/superstep/worker/compute/thread resource=cpu"
)

// probes is the endpoint index every mode is checked against: one request
// per route any mode serves, plus the status-relevant variants. {run},
// {id} and {id2} expand per mode (the run name and two archive IDs).
var probes = []string{
	"GET /",
	"GET /no-such-path",
	"GET /profile",
	"GET /profile?run={run}",
	"GET /phases",
	"GET /bottlenecks",
	"GET /windows",
	"GET /stats",
	"GET /report",
	"GET /report?run={run}",
	"GET /explain",
	"GET /explain?q=" + url.QueryEscape(explainQ),
	"GET /explain?q=" + url.QueryEscape(explainQ) + "&format=text",
	"GET /trace",
	"GET /metrics",
	"GET /healthz",
	"GET /logs?limit=5",
	"GET /debug/overhead",
	"GET /ui",
	"GET /ui/",
	"GET /ui/app.js",
	"GET /api/overview",
	"GET /api/overview?run={run}",
	"GET /api/heatmap",
	"GET /api/timeline",
	"GET /api/comms",
	"GET /api/events",
	"GET /alerts",
	"GET /runs",
	"GET /runs/{id}",
	"GET /runs/nope",
	"GET /diff",
	"GET /diff?a={id}&b={id2}",
	"GET /diff?a={id}&b={id2}&format=text",
	"GET /debug/pprof/",
	"GET /debug/pprof/cmdline",
	"GET /debug/bundles",
	"GET /debug/bundle",
	"POST /debug/bundle?detail=ci",
	"POST /debug/bundle",
	"GET /fleet/runs",
	"POST /fleet/runs",
	"GET /fleet/bottlenecks?k=5",
	"GET /fleet/regressions?k=5",
	"GET /fleet/blame",
	"GET /fleet/blame?run={run}",
}

// client never follows redirects, so /ui answers its own 301.
var client = &http.Client{
	Timeout:       30 * time.Second,
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// env is one mode's running service.
type env struct {
	t    *testing.T
	srv  *service.Server
	base string
	vars map[string]string
}

func (e *env) expand(path string) string {
	for k, v := range e.vars {
		path = strings.ReplaceAll(path, "{"+k+"}", v)
	}
	return path
}

// do issues one request and returns the status and (for non-streaming
// responses) the body.
func (e *env) do(method, path string) (int, []byte) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.base+e.expand(path), nil)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		e.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") == "text/event-stream" {
		return resp.StatusCode, nil // SSE streams stay open; the status is the answer
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// get fetches a path that must answer 200.
func (e *env) get(path string) []byte {
	e.t.Helper()
	code, body := e.do("GET", path)
	if code != http.StatusOK {
		e.t.Fatalf("GET %s = %d: %s", path, code, body)
	}
	return body
}

// getJSON fetches a 200 JSON document into out.
func (e *env) getJSON(path string, out any) {
	e.t.Helper()
	if err := json.Unmarshal(e.get(path), out); err != nil {
		e.t.Fatalf("GET %s: %v", path, err)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serve assembles the service, runs it until the test ends, and waits for
// ready.
func serve(t *testing.T, cfg service.Config, ready func(*env) bool) *env {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Poll, cfg.Idle = testPoll, testIdle
	srv, err := service.Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{t: t, srv: srv, base: "http://" + srv.Addr(), vars: map[string]string{"id": "none", "id2": "none"}}
	stop, ran := make(chan struct{}), make(chan error, 1)
	go func() { ran <- srv.Run(stop) }()
	t.Cleanup(func() {
		close(stop)
		if err := <-ran; err != nil {
			t.Errorf("Run: %v", err)
		}
		srv.Shutdown()
	})
	waitFor(t, "service ready", func() bool { return ready(e) })
	return e
}

func reportReady(e *env) bool {
	code, _ := e.do("GET", "/report")
	return code == http.StatusOK
}

// TestServiceEndToEnd drives every serving mode through service.Assemble on
// the same fixture: each answers the golden endpoint index (every route the
// mode serves, with its status), then the mode's own end-to-end checks run.
func TestServiceEndToEnd(t *testing.T) {
	quiet, noisy := fixture(t)
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) *env
		check func(e *env)
	}{
		{"serve-run", func(t *testing.T) *env {
			dir := filepath.Join(t.TempDir(), "quiet")
			copyRun(t, quiet, dir)
			e := serve(t, service.Config{Dir: dir, UI: true, Engine: serveEngine()}, reportReady)
			e.vars["run"] = "quiet"
			return e
		}, checkMetricsGolden},
		{"serve-run-full", startFull, checkFull},
		{"serve-fleet", func(t *testing.T) *env {
			root := t.TempDir()
			watch := filepath.Join(root, "watch")
			if err := os.MkdirAll(watch, 0o755); err != nil {
				t.Fatal(err)
			}
			e := serve(t, service.Config{
				Watch: watch, MaxActive: 8, QueueDepth: 64, UI: true,
				StoreDir: filepath.Join(root, "archive"),
			}, func(*env) bool { return true })
			// Stage outside the watch directory, then move in atomically.
			for _, src := range []string{quiet, noisy} {
				staged := filepath.Join(root, filepath.Base(src))
				copyRun(t, src, staged)
				if err := os.Rename(staged, filepath.Join(watch, filepath.Base(src))); err != nil {
					t.Fatal(err)
				}
			}
			var snap struct {
				Runs []struct {
					Name, Status string
					ArchiveID    string `json:"archive_id"`
				}
			}
			waitFor(t, "both fleet runs done", func() bool {
				e.getJSON("/fleet/runs", &snap)
				done := 0
				for _, r := range snap.Runs {
					if r.Status == "done" {
						done++
					}
				}
				return done == 2
			})
			ids := map[string]string{}
			for _, r := range snap.Runs {
				ids[r.Name] = r.ArchiveID
			}
			e.vars["run"], e.vars["id"], e.vars["id2"] = "quiet", ids["quiet"], ids["noisy"]
			return e
		}, checkFleet},
		{"runsim-serve", func(t *testing.T) *env {
			e := serve(t, service.Config{
				UI:     true,
				Engine: stream.Config{RetainForFinal: true}, ShutdownTimeout: 3 * time.Second,
			}, func(*env) bool { return true })
			followWritten(t, e.srv, quiet)
			e.vars["run"] = "quiet"
			return e
		}, func(*env) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.start(t)
			var got bytes.Buffer
			for _, p := range probes {
				method, path, _ := strings.Cut(p, " ")
				code, _ := e.do(method, path)
				fmt.Fprintf(&got, "%s %d\n", p, code)
			}
			checkGolden(t, "endpoints_"+tc.name+".golden", got.Bytes())
			tc.check(e)
		})
	}
}

// TestPinnedRefusesRegistration: serve -run takes no registrations. A POST
// /fleet/runs naming a directory with the pinned run's base name, sent before
// run.json appears, is refused, and the service still pins the run, finishes
// it and serves /report.
func TestPinnedRefusesRegistration(t *testing.T) {
	quiet, _ := fixture(t)
	root := t.TempDir()
	dir := filepath.Join(root, "quiet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	e := serve(t, service.Config{Dir: dir, Engine: serveEngine()}, func(*env) bool { return true })
	body := `{"dir": ` + strconv.Quote(filepath.Join(root, "elsewhere", "quiet")) + `}`
	resp, err := client.Post(e.base+"/fleet/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /fleet/runs in pinned mode = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	copyRun(t, quiet, dir)
	waitFor(t, "/report", func() bool { return reportReady(e) })
	var snap fleet.FleetSnapshot
	e.getJSON("/fleet/runs", &snap)
	if len(snap.Runs) != 1 || !snap.Runs[0].Pinned || snap.Runs[0].Status != fleet.StatusDone {
		t.Fatalf("/fleet/runs = %+v, want the one pinned run, done", snap.Runs)
	}
}

// serveEngine is cmd/serve's -run engine template at default flags.
func serveEngine() stream.Config {
	return stream.Config{WindowSlices: 64, MaxWindows: 32, RetainForFinal: true, Tracer: obs.NewTracer()}
}

// followWritten serves a run the way runsim -serve does once its simulation
// has saved the run: the fleet follows the complete directory as its pinned
// run, which finishes after one poll.
func followWritten(t *testing.T, srv *service.Server, dir string) {
	t.Helper()
	if err := srv.Fleet().Follow(dir, "", nil); err != nil {
		t.Fatal(err)
	}
}

// startFull is serve -run with -store -alert-rules -bundle-dir
// -pprof. The always-true threshold rule fires on the first window flush;
// the firing transition happens once and the per-trigger-kind rate limit
// guards the rest, so exactly one alert bundle may land.
func startFull(t *testing.T) *env {
	quiet, _ := fixture(t)
	root := t.TempDir()
	dir := filepath.Join(root, "quiet")
	copyRun(t, quiet, dir)
	rules, err := alert.ParseRules(strings.NewReader("alert smoke severity info when windows_flushed >= 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	e := serve(t, service.Config{
		Dir: dir, UI: true, Engine: serveEngine(), Pprof: true,
		StoreDir: filepath.Join(root, "archive"), AlertRules: rules,
		BundleDir: filepath.Join(root, "bundles"), BundleMax: 16,
		BundleMinInterval: time.Minute, BundleCPUProfile: 250 * time.Millisecond,
	}, reportReady)
	var runs struct {
		Runs []struct{ ID string }
	}
	waitFor(t, "archived run", func() bool {
		e.getJSON("/runs", &runs)
		return len(runs.Runs) == 1
	})
	// The alert-triggered capture is asynchronous; wait for it to land.
	waitFor(t, "alert bundle", func() bool { return len(bundles(e, "alert")) == 1 })
	e.vars["run"], e.vars["id"], e.vars["id2"] = "quiet", runs.Runs[0].ID, runs.Runs[0].ID
	return e
}

func bundles(e *env, trigger string) []string {
	var list struct {
		Bundles []struct{ ID, Trigger string }
	}
	e.getJSON("/debug/bundles", &list)
	var ids []string
	for _, b := range list.Bundles {
		if b.Trigger == trigger {
			ids = append(ids, b.ID)
		}
	}
	return ids
}

// checkFull covers the flight recorder, the UI, and explain over HTTP.
func checkFull(e *env) {
	t := e.t
	checkMetricsGolden(e)

	// Flight: one alert bundle, complete; the probes' manual POST captured a
	// second and the immediate retry was rate-limited.
	alertBundles := bundles(e, "alert")
	if len(alertBundles) != 1 {
		t.Fatalf("alert bundles = %v, want exactly one", alertBundles)
	}
	files := untar(t, e.get("/debug/bundles/"+alertBundles[0]))
	for _, want := range []string{"manifest.json", "goroutine.pprof", "heap.pprof", "cpu.pprof",
		"trace.json", "logs.json", "windows.json", "alerts.json", "overhead.json"} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle missing %s", want)
		}
	}
	var man struct {
		Trigger, Version string
		Notes            []string
	}
	mustJSON(t, files["manifest.json"], &man)
	if man.Trigger != "alert" || man.Version == "" || len(man.Notes) > 0 {
		t.Errorf("manifest = %+v", man)
	}
	var trace struct{ TraceEvents []json.RawMessage }
	mustJSON(t, files["trace.json"], &trace)
	var logs struct{ Records []json.RawMessage }
	mustJSON(t, files["logs.json"], &logs)
	if len(trace.TraceEvents) == 0 || len(logs.Records) == 0 {
		t.Errorf("bundle trace has %d events, log ring %d records", len(trace.TraceEvents), len(logs.Records))
	}
	var ov struct {
		Runs []struct {
			Windows     int64 `json:"windows"`
			IngestBytes int64 `json:"ingest_bytes"`
		}
	}
	e.getJSON("/debug/overhead", &ov)
	if len(ov.Runs) != 1 || ov.Runs[0].Windows == 0 || ov.Runs[0].IngestBytes == 0 {
		t.Errorf("/debug/overhead = %+v, want windows and ingest bytes", ov)
	}
	e.getJSON("/logs?limit=50", &logs)
	if len(logs.Records) == 0 {
		t.Error("/logs served no records")
	}
	metrics := string(e.get("/metrics"))
	for _, want := range []string{
		"grade10_bundles_total 2", "grade10_bundles_ratelimited_total",
		"grade10_flight_log_ring_records", `grade10_overhead_wall_seconds{run="quiet"}`,
		`ALERTS{alertname="smoke",severity="info",alertstate="firing"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// UI: the page comes up from embedded assets, every view model answers,
	// the heatmap is the exact final profile with explain pointers, and the
	// SSE stream greets every subscriber, even after finalization.
	if !bytes.Contains(bytes.ToLower(e.get("/ui/")), []byte("<html")) {
		t.Error("/ui/ served no HTML")
	}
	var heat struct {
		Source string
		Rows   []struct {
			Leaf  bool
			Cells []struct{ Query string }
		}
	}
	e.getJSON("/api/heatmap", &heat)
	queries := 0
	for _, r := range heat.Rows {
		for _, c := range r.Cells {
			if r.Leaf && c.Query != "" {
				queries++
			}
		}
	}
	if heat.Source != "final" || queries == 0 {
		t.Errorf("heatmap source %q with %d leaf explain queries", heat.Source, queries)
	}
	var tl struct{ Lanes []json.RawMessage }
	e.getJSON("/api/timeline", &tl)
	if len(tl.Lanes) == 0 {
		t.Error("timeline has no lanes")
	}
	for _, ep := range []string{"overview", "comms"} {
		if body := e.get("/api/" + ep); len(bytes.TrimSpace(body)) < 3 {
			t.Errorf("/api/%s empty", ep)
		}
	}
	if ev := firstSSEEvent(t, e.base+"/api/events"); ev != "hello" {
		t.Errorf("first SSE frame %q, want hello", ev)
	}
	metrics = string(e.get("/metrics"))
	for _, want := range []string{
		`grade10_http_requests_total{path="/ui/",code="200"}`,
		`grade10_http_requests_total{path="/api/heatmap",code="200"}`,
		"grade10_http_request_seconds", "grade10_ui_sse_subscribers",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Explain: the exact final derivation, whose chain sums to the profile's
	// own attributed value.
	var ex struct {
		Derivations []struct {
			Final      bool
			Derivation struct {
				Instances []struct {
					Phases []struct{ Cells []json.RawMessage }
				}
				Attributed float64 `json:"attributed_unit_seconds"`
				Profile    float64 `json:"profile_unit_seconds"`
			}
		}
	}
	e.getJSON("/explain?q="+url.QueryEscape(explainQ), &ex)
	if len(ex.Derivations) == 0 || !ex.Derivations[0].Final {
		t.Fatalf("/explain = %+v, want the exact final derivation first", ex)
	}
	d := ex.Derivations[0].Derivation
	cells := 0
	for _, in := range d.Instances {
		for _, p := range in.Phases {
			cells += len(p.Cells)
		}
	}
	if cells == 0 || d.Attributed <= 0 || math.Abs(d.Attributed-d.Profile) > 1e-6*math.Max(1, d.Profile) {
		t.Errorf("derivation: %d cells, chain %g vs profile %g", cells, d.Attributed, d.Profile)
	}
}

// checkFleet covers archiving and cross-job blame.
func checkFleet(e *env) {
	t := e.t
	var snap struct {
		Runs []struct {
			Name      string
			ArchiveID string `json:"archive_id"`
		}
	}
	e.getJSON("/fleet/runs", &snap)
	var names []string
	for _, r := range snap.Runs {
		names = append(names, r.Name)
		if r.ArchiveID == "" {
			t.Errorf("%s not archived", r.Name)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "noisy,quiet" {
		t.Fatalf("fleet runs %v", names)
	}
	var rep struct {
		Total     float64 `json:"total_contended_ns"`
		Self      float64 `json:"self_ns"`
		Neighbors []struct {
			Run       string
			Blamed    float64 `json:"blamed_ns"`
			Resources []struct {
				Evidence []struct {
					Query string `json:"explain_query"`
				}
			}
		}
	}
	e.getJSON("/fleet/blame?run=quiet", &rep)
	if rep.Total <= 0 {
		t.Fatal("no contended time on the shared hosts")
	}
	if len(rep.Neighbors) == 0 || rep.Neighbors[0].Run != "noisy" || rep.Neighbors[0].Blamed <= 0 {
		t.Fatalf("expected nonzero blame on the noisy neighbor: %+v", rep.Neighbors)
	}
	share, evidence := rep.Self, 0
	for _, n := range rep.Neighbors {
		share += n.Blamed
		for _, r := range n.Resources {
			for _, ev := range r.Evidence {
				evidence++
				if !strings.Contains(ev.Query, "resource=") {
					t.Errorf("blame evidence without an explain query: %q", ev.Query)
				}
			}
		}
	}
	if math.Abs(share-rep.Total) > 1e-6*rep.Total {
		t.Errorf("shares %g != total %g", share, rep.Total)
	}
	if evidence == 0 {
		t.Error("blame carries no evidence")
	}
	if m := string(e.get("/metrics")); !strings.Contains(m, "grade10_fleet_runs_active") {
		t.Error("/metrics missing the fleet families")
	}
}

// checkMetricsGolden pins the pinned-run /metrics schema: every family's
// name, TYPE, and label keys.
func checkMetricsGolden(e *env) {
	checkGolden(e.t, "metrics_"+e.t.Name()[strings.LastIndex(e.t.Name(), "/")+1:]+".golden",
		metricsSchema(e.get("/metrics")))
}

var labelKey = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)="(?:[^"\\]|\\.)*"`)

// metricsSchema reduces a Prometheus exposition to one sorted line per
// family: name, type, and the label keys its samples carry (histogram le
// excluded).
func metricsSchema(text []byte) []byte {
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			keys[f[2]] = map[string]bool{}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, _ := strings.Cut(strings.Fields(line)[0], "{")
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
					name = base
				}
			}
		}
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			if m[1] != "le" {
				keys[name][m[1]] = true
			}
		}
	}
	var lines []string
	for name, typ := range types {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		lines = append(lines, strings.TrimSpace(name+" "+typ+" "+strings.Join(ks, ",")))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
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
		t.Errorf("%s drifted from golden (GRADE10_UPDATE_GOLDEN=1 to accept):\n%s", name, lineDiff(want, got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got []byte) string {
	count := map[string]int{}
	for _, l := range strings.Split(string(want), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(string(got), "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "- "+l)
		case n < 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func mustJSON(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
}

// untar maps each regular file's base name to its contents.
func untar(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return files
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.Typeflag == tar.TypeReg {
			body, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(h.Name)] = body
		}
	}
}

// firstSSEEvent subscribes and returns the first frame's event name.
func firstSSEEvent(t *testing.T, url string) string {
	t.Helper()
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			return ev
		}
	}
	return ""
}
