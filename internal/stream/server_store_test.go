package stream_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/service"
)

// storeServer builds a server with an archive holding a baseline and a
// regressed synthetic record.
func storeServer(t *testing.T) (*service.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := profstore.Open(dir, profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const sec = int64(1_000_000_000)
	base := &profstore.Record{
		Engine: "giraph", Job: "pagerank", Workers: 2, MakespanNS: 10 * sec,
		Phases: []profstore.PhaseSummary{
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Machine: 0, Leaf: true, Count: 8, TotalNS: 5 * sec},
		},
		Attribution: []profstore.AttributionCell{
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Resource: "cpu", UnitSeconds: 20},
		},
	}
	slow := &profstore.Record{
		Engine: "giraph", Job: "pagerank", Workers: 2, MakespanNS: 13 * sec,
		Phases: []profstore.PhaseSummary{
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Machine: 0, Leaf: true, Count: 8, TotalNS: 8 * sec},
		},
		Attribution: []profstore.AttributionCell{
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Resource: "cpu", UnitSeconds: 33},
		},
	}
	ma, _, err := store.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := store.Put(slow)
	if err != nil {
		t.Fatal(err)
	}
	return assemble(t, service.Config{StoreDir: dir}), ma.ID, mb.ID
}

func TestStoreEndpoints(t *testing.T) {
	srv, idA, idB := storeServer(t)

	code, body, hdr := get(t, srv, "/runs")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/runs: %d %q", code, hdr.Get("Content-Type"))
	}
	var list struct {
		Runs         []profstore.Meta `json:"runs"`
		EvictedTotal int64            `json:"evicted_total"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/runs not JSON: %v", err)
	}
	if len(list.Runs) != 2 || list.Runs[0].ID != idA || list.Runs[1].ID != idB {
		t.Fatalf("/runs = %+v, want [%s %s]", list.Runs, idA, idB)
	}

	code, body, _ = get(t, srv, "/runs/"+idA)
	if code != http.StatusOK {
		t.Fatalf("/runs/{id}: %d %s", code, body)
	}
	var rec profstore.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("/runs/{id} not JSON: %v", err)
	}
	if rec.ID != idA || rec.MakespanNS != 10_000_000_000 {
		t.Fatalf("/runs/{id} = %s makespan %d", rec.ID, rec.MakespanNS)
	}
	// Prefix resolution works over HTTP too.
	if code, _, _ := get(t, srv, "/runs/"+idA[:6]); code != http.StatusOK {
		t.Fatalf("/runs/{prefix}: %d", code)
	}
	if code, _, _ := get(t, srv, "/runs/nope"); code != http.StatusNotFound {
		t.Fatalf("/runs/nope: %d, want 404", code)
	}
}

func TestDiffEndpointAndWatchdogGauge(t *testing.T) {
	srv, idA, idB := storeServer(t)

	// Before any diff the watchdog gauge reads 0.
	_, metrics, _ := get(t, srv, "/metrics")
	if !strings.Contains(metrics, "grade10_last_diff_regressed 0") {
		t.Fatalf("/metrics missing zero watchdog gauge:\n%s", metrics)
	}
	if !strings.Contains(metrics, "grade10_runs_stored 2") {
		t.Fatal("/metrics missing grade10_runs_stored 2")
	}
	if !strings.Contains(metrics, "grade10_runs_evicted_total 0") {
		t.Fatal("/metrics missing grade10_runs_evicted_total")
	}

	code, body, _ := get(t, srv, "/diff?a="+idA+"&b="+idB)
	if code != http.StatusOK {
		t.Fatalf("/diff: %d %s", code, body)
	}
	var rep profdiff.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/diff not JSON: %v", err)
	}
	if rep.Verdict != profdiff.Regressed {
		t.Fatalf("verdict = %s, want regressed", rep.Verdict)
	}
	if rep.TopRegression == nil || rep.TopRegression.Resource != "cpu" {
		t.Fatalf("top regression = %+v", rep.TopRegression)
	}

	// The watchdog gauge now reports the regressed verdict.
	_, metrics, _ = get(t, srv, "/metrics")
	if !strings.Contains(metrics, "grade10_last_diff_regressed 1") {
		t.Fatalf("/metrics watchdog gauge not raised:\n%s", metrics)
	}

	// Text rendering and the reverse (improved) direction clear it.
	code, body, hdr := get(t, srv, "/diff?a="+idB+"&b="+idA+"&format=text")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/diff text: %d %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "verdict: IMPROVED") {
		t.Fatalf("/diff text body:\n%s", body)
	}
	_, metrics, _ = get(t, srv, "/metrics")
	if !strings.Contains(metrics, "grade10_last_diff_regressed 0") {
		t.Fatal("/metrics watchdog gauge not cleared after improved diff")
	}

	// Bad requests.
	if code, _, _ := get(t, srv, "/diff"); code != http.StatusBadRequest {
		t.Fatalf("/diff without params: %d", code)
	}
	if code, _, _ := get(t, srv, "/diff?a="+idA+"&b=nope"); code != http.StatusNotFound {
		t.Fatalf("/diff with unknown run: %d", code)
	}
}
