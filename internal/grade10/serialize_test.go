package grade10

import (
	"bytes"
	"strings"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/core"
)

func params() ModelParams {
	return ModelParams{Job: "pagerank", Cores: 8, NetBandwidth: 1e8, ThreadsPerWorker: 8}
}

func TestModelsJSONRoundTripGiraph(t *testing.T) {
	orig, err := GiraphModel(params())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModels(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Execution model: same type paths and flags.
	origPaths := orig.Exec.TypePaths()
	backPaths := back.Exec.TypePaths()
	if len(origPaths) != len(backPaths) {
		t.Fatalf("paths %v vs %v", origPaths, backPaths)
	}
	for i := range origPaths {
		if origPaths[i] != backPaths[i] {
			t.Fatalf("paths %v vs %v", origPaths, backPaths)
		}
		a, b := orig.Exec.Lookup(origPaths[i]), back.Exec.Lookup(backPaths[i])
		if a.Repeated != b.Repeated || a.Sequential != b.Sequential ||
			a.SyncGroup != b.SyncGroup || a.ElasticWaits != b.ElasticWaits {
			t.Fatalf("flags differ at %s: %+v vs %+v", origPaths[i], a, b)
		}
		if len(a.After) != len(b.After) {
			t.Fatalf("after differ at %s", origPaths[i])
		}
	}

	// Resources.
	if len(orig.Res.Resources()) != len(back.Res.Resources()) {
		t.Fatal("resource counts differ")
	}
	for _, r := range orig.Res.Resources() {
		got := back.Res.Lookup(r.Name)
		if got == nil || got.Kind != r.Kind || got.Capacity != r.Capacity ||
			got.PerMachine != r.PerMachine {
			t.Fatalf("resource %q differs: %+v vs %+v", r.Name, got, r)
		}
	}

	// Rules: explicit entries preserved, including the tuned thread rule.
	thread := "/pagerank/execute/superstep/worker/compute/thread"
	if r := back.Rules.Get(thread, cluster.ResCPU); r.Kind != core.RuleExact || r.Amount != 1 {
		t.Fatalf("thread rule %+v", r)
	}
	for _, tp := range origPaths {
		for _, res := range orig.Res.Resources() {
			if orig.Rules.Explicit(tp, res.Name) != back.Rules.Explicit(tp, res.Name) {
				t.Fatalf("explicitness differs at %s/%s", tp, res.Name)
			}
			if orig.Rules.Get(tp, res.Name) != back.Rules.Get(tp, res.Name) {
				t.Fatalf("rule differs at %s/%s", tp, res.Name)
			}
		}
	}
}

func TestModelsJSONRoundTripPowerGraph(t *testing.T) {
	orig, err := PowerGraphModel(ModelParams{Job: "cdlp", Cores: 8, NetBandwidth: 1e9, ThreadsPerWorker: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModels(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ex := back.Exec.Lookup("/cdlp/execute/iteration/worker/exchange")
	if ex == nil || !ex.SyncGroup {
		t.Fatal("exchange sync flag lost")
	}
	it := back.Exec.Lookup("/cdlp/execute/iteration")
	if it == nil || !it.Sequential || !it.Repeated {
		t.Fatal("iteration flags lost")
	}
}

func TestLoadModelsErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown field":    `{"bogus": 1}`,
		"bad kind":         `{"execution":{"name":"a"},"resources":[{"name":"cpu","kind":"fluid"}]}`,
		"bad rule kind":    `{"execution":{"name":"a"},"resources":[{"name":"cpu","kind":"blocking"}],"rules":[{"phase_type":"/a","resource":"cpu","kind":"fuzzy"}]}`,
		"unknown type":     `{"execution":{"name":"a"},"resources":[{"name":"cpu","kind":"blocking"}],"rules":[{"phase_type":"/b","resource":"cpu","kind":"none"}]}`,
		"unknown resource": `{"execution":{"name":"a"},"resources":[],"rules":[{"phase_type":"/a","resource":"cpu","kind":"none"}]}`,
		"zero capacity":    `{"execution":{"name":"a"},"resources":[{"name":"cpu","kind":"consumable"}]}`,
		"sequential sync":  `{"execution":{"name":"a","children":[{"name":"step","repeated":true,"sequential":true,"sync_group":true}]},"resources":[]}`,
	}
	for name, in := range cases {
		if _, err := LoadModels(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A type the replay could never schedule is named in the error.
	if _, err := LoadModels(strings.NewReader(cases["sequential sync"])); err == nil || !strings.Contains(err.Error(), "/a/step") {
		t.Errorf("sequential sync: err %v, want it to name /a/step", err)
	}
}

func TestSavedModelsUsableEndToEnd(t *testing.T) {
	// Characterizing with round-tripped models must equal the direct ones.
	res, cfg := giraphRun(t)
	direct, err := GiraphModel(giraphParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModels(&buf, direct); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50000000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: direct})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Characterize(Input{Log: res.Log, Monitoring: monitoring, Models: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if a.Issues.Original != b.Issues.Original ||
		len(a.Bottlenecks.Bottlenecks) != len(b.Bottlenecks.Bottlenecks) {
		t.Fatal("round-tripped models changed the analysis")
	}
}
