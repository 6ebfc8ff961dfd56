package profdiff

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grade10/internal/profstore"
)

// baseRecord builds a deterministic synthetic profile whose shape mirrors
// the giraph model: a root job phase plus leaf compute/communicate phases
// on two machines, with attribution, bottleneck, and issue rows.
func baseRecord(id, label string) *profstore.Record {
	const sec = int64(1_000_000_000)
	rec := &profstore.Record{
		Version: profstore.Version, ID: id, Label: label,
		Engine: "giraph", Job: "pagerank", Workers: 2,
		Timeslices: 200, TimesliceNS: 10_000_000, MakespanNS: 10 * sec,
		Phases: []profstore.PhaseSummary{
			{TypePath: "/pagerank", Machine: -1, Count: 1,
				TotalNS: 10 * sec, MeanNS: 10 * sec, MaxNS: 10 * sec},
			{TypePath: "/pagerank/execute/superstep/worker/communicate",
				Machine: 0, Leaf: true, Count: 5, TotalNS: 2 * sec,
				MeanNS: 2 * sec / 5, MaxNS: sec / 2,
				BlockedNS: map[string]int64{"msgqueue": sec / 4}},
			{TypePath: "/pagerank/execute/superstep/worker/communicate",
				Machine: 1, Leaf: true, Count: 5, TotalNS: 2 * sec,
				MeanNS: 2 * sec / 5, MaxNS: sec / 2,
				BlockedNS: map[string]int64{"msgqueue": sec / 5}},
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Machine: 0, Leaf: true, Count: 20, TotalNS: 4 * sec,
				MeanNS: 4 * sec / 20, MaxNS: sec / 2},
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Machine: 1, Leaf: true, Count: 20, TotalNS: 4 * sec,
				MeanNS: 4 * sec / 20, MaxNS: sec / 2},
		},
		Resources: []profstore.ResourceSummary{
			{Key: "cpu@0", Resource: "cpu", Machine: 0, Capacity: 8,
				ConsumedUnitSeconds: 30, AttributedUnitSeconds: 28,
				UnattributedUnitSeconds: 2, AvgUtilization: 0.4},
			{Key: "cpu@1", Resource: "cpu", Machine: 1, Capacity: 8,
				ConsumedUnitSeconds: 30, AttributedUnitSeconds: 28,
				UnattributedUnitSeconds: 2, AvgUtilization: 0.4},
			{Key: "net-in@0", Resource: "net-in", Machine: 0, Capacity: 1e9,
				ConsumedUnitSeconds: 4e8, AttributedUnitSeconds: 4e8,
				AvgUtilization: 0.05},
		},
		Attribution: []profstore.AttributionCell{
			{TypePath: "/pagerank/execute/superstep/worker/communicate",
				Resource: "net-in", UnitSeconds: 4e8},
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Resource: "cpu", UnitSeconds: 24},
		},
		Bottlenecks: []profstore.BottleneckSummary{
			{TypePath: "/pagerank/execute/superstep/worker/compute/thread",
				Resource: "cpu", Kind: "saturation", Phases: 8, TotalNS: sec},
		},
		Issues: []profstore.IssueSummary{
			{Kind: "bottleneck", Target: "cpu", OriginalNS: 10 * sec,
				OptimisticNS: 9 * sec, Impact: 0.10},
			{Kind: "imbalance", Target: "/pagerank/execute/superstep/worker/compute/thread",
				OriginalNS: 10 * sec, OptimisticNS: 95 * sec / 10, Impact: 0.05},
		},
	}
	return rec
}

// regressedRecord slows the compute leaf on machine 1 by ~40% (a CPU noise
// injection signature): longer compute, more blocked/bottleneck/attributed
// CPU evidence, longer makespan.
func regressedRecord() *profstore.Record {
	const sec = int64(1_000_000_000)
	rec := baseRecord("bbbbbbbbbbbb", "noisy")
	rec.MakespanNS = 12 * sec
	rec.Phases[0].TotalNS = 12 * sec
	rec.Phases[0].MeanNS = 12 * sec
	rec.Phases[0].MaxNS = 12 * sec
	// machine 1 compute/thread regresses hard, machine 0 mildly
	rec.Phases[3].TotalNS = 4*sec + sec/2
	rec.Phases[4].TotalNS = 6 * sec
	rec.Phases[4].MaxNS = sec
	rec.Attribution[1].UnitSeconds = 38
	rec.Bottlenecks[0].TotalNS = 3 * sec
	rec.Bottlenecks[0].Phases = 14
	rec.Issues[0].OptimisticNS = 9 * sec
	rec.Issues[0].Impact = 0.25
	rec.Issues[1].Impact = 0.12
	return rec
}

// improvedRecord speeds up communicate (less msgqueue blocking, shorter
// makespan) and drops the CPU saturation bottleneck entirely.
func improvedRecord() *profstore.Record {
	const sec = int64(1_000_000_000)
	rec := baseRecord("cccccccccccc", "tuned")
	rec.MakespanNS = 9 * sec
	rec.Phases[0].TotalNS = 9 * sec
	rec.Phases[0].MeanNS = 9 * sec
	rec.Phases[0].MaxNS = 9 * sec
	rec.Phases[1].TotalNS = 1 * sec
	rec.Phases[1].BlockedNS = map[string]int64{"msgqueue": sec / 20}
	rec.Phases[2].TotalNS = 1 * sec
	rec.Phases[2].BlockedNS = map[string]int64{"msgqueue": sec / 20}
	rec.Bottlenecks = nil
	rec.Issues[0].Impact = 0.02
	return rec
}

// reshapedRecord renames the compute leaf (phase-added/removed case).
func reshapedRecord() *profstore.Record {
	rec := baseRecord("dddddddddddd", "reshaped")
	for i := range rec.Phases {
		rec.Phases[i].TypePath = strings.Replace(rec.Phases[i].TypePath,
			"/compute/thread", "/compute/vectorized", 1)
	}
	for i := range rec.Attribution {
		rec.Attribution[i].TypePath = strings.Replace(rec.Attribution[i].TypePath,
			"/compute/thread", "/compute/vectorized", 1)
	}
	for i := range rec.Bottlenecks {
		rec.Bottlenecks[i].TypePath = strings.Replace(rec.Bottlenecks[i].TypePath,
			"/compute/thread", "/compute/vectorized", 1)
	}
	return rec
}

func goldenCases() map[string]func() (*profstore.Record, *profstore.Record) {
	base := func() *profstore.Record { return baseRecord("aaaaaaaaaaaa", "baseline") }
	return map[string]func() (*profstore.Record, *profstore.Record){
		"regressed":     func() (*profstore.Record, *profstore.Record) { return base(), regressedRecord() },
		"improved":      func() (*profstore.Record, *profstore.Record) { return base(), improvedRecord() },
		"neutral":       func() (*profstore.Record, *profstore.Record) { return base(), baseRecord("eeeeeeeeeeee", "rerun") },
		"phase_reshape": func() (*profstore.Record, *profstore.Record) { return base(), reshapedRecord() },
	}
}

func render(t *testing.T, a, b *profstore.Record) (text, jsonOut []byte) {
	t.Helper()
	rep, err := Diff(a, b, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var tb, jb bytes.Buffer
	if err := WriteText(&tb, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jb, rep); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GRADE10_UPDATE_GOLDEN") != "" {
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
		t.Fatalf("missing golden %s (run with GRADE10_UPDATE_GOLDEN=1): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenReports(t *testing.T) {
	for name, mk := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			a, b := mk()
			text, jsonOut := render(t, a, b)
			checkGolden(t, name+".txt", text)
			checkGolden(t, name+".json", jsonOut)
		})
	}
}

func TestVerdictsAndLocalization(t *testing.T) {
	base := baseRecord("aaaaaaaaaaaa", "baseline")

	rep, err := Diff(base, regressedRecord(), DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Regressed {
		t.Fatalf("verdict = %s, want regressed", rep.Verdict)
	}
	if rep.TopRegression == nil {
		t.Fatal("no top regression localized")
	}
	if got := rep.TopRegression.TypePath; !strings.HasSuffix(got, "/compute/thread") {
		t.Errorf("top regression phase = %s, want .../compute/thread", got)
	}
	if rep.TopRegression.Resource != "cpu" {
		t.Errorf("top regression resource = %s, want cpu", rep.TopRegression.Resource)
	}
	if rep.TopRegression.Machine != 1 {
		t.Errorf("top regression machine = %d, want 1 (hardest hit)", rep.TopRegression.Machine)
	}

	rep, err = Diff(base, improvedRecord(), DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Improved {
		t.Fatalf("verdict = %s, want improved", rep.Verdict)
	}
	if rep.TopImprovement == nil || !strings.HasSuffix(rep.TopImprovement.TypePath, "/communicate") {
		t.Errorf("top improvement = %+v, want .../communicate", rep.TopImprovement)
	}
	// The saturation bottleneck disappeared.
	foundGone := false
	for _, bd := range rep.Bottlenecks {
		if bd.Status == StatusDisappeared && bd.Resource == "cpu" {
			foundGone = true
		}
	}
	if !foundGone {
		t.Error("cpu saturation bottleneck should be reported as disappeared")
	}

	rep, err = Diff(base, baseRecord("eeeeeeeeeeee", "rerun"), DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Neutral {
		t.Fatalf("verdict = %s, want neutral", rep.Verdict)
	}
	if rep.TopRegression != nil || rep.TopImprovement != nil {
		t.Errorf("identical runs should localize nothing: %+v %+v",
			rep.TopRegression, rep.TopImprovement)
	}
	if len(rep.Phases) != 0 {
		t.Errorf("identical runs should produce no phase rows, got %d", len(rep.Phases))
	}
}

func TestPhaseAddRemove(t *testing.T) {
	rep, err := Diff(baseRecord("aaaaaaaaaaaa", "baseline"), reshapedRecord(), DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	added, removed := 0, 0
	for _, d := range rep.Phases {
		switch d.Status {
		case StatusAdded:
			added++
			if !strings.Contains(d.TypePath, "/compute/vectorized") {
				t.Errorf("unexpected added phase %s", d.TypePath)
			}
		case StatusRemoved:
			removed++
			if !strings.Contains(d.TypePath, "/compute/thread") {
				t.Errorf("unexpected removed phase %s", d.TypePath)
			}
		}
	}
	if added != 2 || removed != 2 {
		t.Errorf("added %d removed %d, want 2 and 2", added, removed)
	}
}

func TestThresholdConfig(t *testing.T) {
	base := baseRecord("aaaaaaaaaaaa", "")
	// 20% slower is neutral under a 25% threshold.
	rep, err := Diff(base, regressedRecord(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Neutral {
		t.Fatalf("verdict = %s, want neutral with loose thresholds", rep.Verdict)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a, b := baseRecord("aaaaaaaaaaaa", "baseline"), regressedRecord()
	t1, j1 := render(t, a, b)
	t2, j2 := render(t, a, b)
	if !bytes.Equal(t1, t2) || !bytes.Equal(j1, j2) {
		t.Fatal("repeated renders differ")
	}
}
