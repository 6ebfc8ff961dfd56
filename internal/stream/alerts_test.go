package stream_test

import (
	"encoding/json"
	"strings"
	"testing"

	"grade10/internal/alert"
	"grade10/internal/service"
	"grade10/internal/stream"
)

// alertRun feeds the shared fixture through an engine at the given
// parallelism with an attached evaluator and returns the marshaled final
// snapshot plus every transition event, in order.
func alertRun(t *testing.T, f *fixture, parallelism int) (snapJSON, eventsJSON []byte) {
	t.Helper()
	rules, err := alert.ParseRules(strings.NewReader(`
# window-path rules exercising scalar, streak, and keyed conditions
alert windows-moving severity info when windows_flushed >= 1
alert coverage-low when coverage < 2 for 2 windows
alert cpu0-busy severity critical when utilization[cpu@0] > 0 for 3 windows
alert never when parse_errors > 0
`))
	if err != nil {
		t.Fatal(err)
	}
	ev := alert.NewEvaluator(rules, nil)
	var events []alert.Event
	e, err := stream.New(stream.Config{
		Models: f.models, WindowSlices: 16, MaxWindows: 4,
		ExpectedInstances: len(f.monitoring),
		Parallelism:       parallelism,
		Alerts:            ev,
		OnAlert:           func(evs []alert.Event) { events = append(events, evs...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(e, f)
	if _, err := e.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no alert transitions on a multi-window run")
	}
	snap, err := json.MarshalIndent(ev.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	evj, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return snap, evj
}

// TestServerAlertEndpoints: alert rules mount /alerts with the lifecycle
// snapshot, list the route in the index, and refresh the ALERTS series on
// every /metrics scrape.
func TestServerAlertEndpoints(t *testing.T) {
	f := getFixture(t)
	rules, err := alert.ParseRules(strings.NewReader(
		"alert moving severity info when windows_flushed >= 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := serveRun(t, service.Config{
		AlertRules: rules,
		Engine: stream.Config{
			Models: f.models, WindowSlices: 16,
			ExpectedInstances: len(f.monitoring),
		},
	})

	code, body, hdr := get(t, srv, "/alerts")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/alerts: code %d type %q", code, hdr.Get("Content-Type"))
	}
	var snap alert.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/alerts not JSON: %v\n%s", err, body)
	}
	if snap.Firing != 1 || len(snap.Instances) != 1 || snap.Instances[0].Rule != "moving" {
		t.Fatalf("/alerts snapshot: %s", body)
	}

	code, body, _ = get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`ALERTS{alertname="moving",severity="info",alertstate="firing"} 1`,
		"grade10_alerts_firing 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, _ = get(t, srv, "/")
	if code != 200 || !strings.Contains(body, `"/alerts"`) {
		t.Errorf("index does not list /alerts: %d\n%s", code, head(body, 30))
	}
	var idx struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Version == "" || !strings.HasPrefix(idx.GoVersion, "go") {
		t.Errorf("index build info = %+v", idx)
	}
}

// TestAlertEvalParallelBitIdentical: alert evaluation rides the deterministic
// window pipeline, so the full lifecycle — every transition event and the
// final snapshot — must be byte-identical at every attribution parallelism.
func TestAlertEvalParallelBitIdentical(t *testing.T) {
	f := getFixture(t)
	snap1, ev1 := alertRun(t, f, 1)
	snap4, ev4 := alertRun(t, f, 4)
	if string(ev1) != string(ev4) {
		t.Errorf("alert events differ between parallelism 1 and 4\n--- p1 ---\n%s\n--- p4 ---\n%s",
			head(string(ev1), 40), head(string(ev4), 40))
	}
	if string(snap1) != string(snap4) {
		t.Errorf("alert snapshots differ between parallelism 1 and 4\n--- p1 ---\n%s\n--- p4 ---\n%s",
			head(string(snap1), 40), head(string(snap4), 40))
	}
	// The window rules must actually have fired: a test that compares two
	// empty lifecycles proves nothing.
	var s alert.Snapshot
	if err := json.Unmarshal(snap1, &s); err != nil {
		t.Fatal(err)
	}
	if s.Firing == 0 {
		t.Errorf("expected firing rules at end of run, snapshot: %s", head(string(snap1), 30))
	}
}
