package report

import (
	"bytes"
	"strings"
	"testing"

	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

func sampleOutput(t *testing.T) *grade10.Output {
	t.Helper()
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 4
	cfg.HeapCapacity = 1 << 20
	run, err := workload.RunGiraph(
		workload.Spec{Dataset: workload.Datasets()[0], Algorithm: "pagerank"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Characterize(50*vtime.Millisecond, 10*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSummarize(t *testing.T) {
	out := sampleOutput(t)
	sums := Summarize(out.Trace)
	if len(sums) == 0 {
		t.Fatal("no summaries")
	}
	byType := map[string]TypeSummary{}
	for _, s := range sums {
		byType[s.TypePath] = s
		if s.Count <= 0 || s.Total < 0 || s.Mean() > s.Max {
			t.Fatalf("bad summary %+v", s)
		}
	}
	ss := byType["/pagerank/execute/superstep"]
	if ss.Count != 8 {
		t.Fatalf("superstep count %d", ss.Count)
	}
	worker := byType["/pagerank/execute/superstep/worker"]
	if gc := worker.Blocked["gc"]; gc <= 0 {
		t.Fatalf("no gc blocking aggregated: %+v", worker)
	}
}

func TestWriteAllProducesSections(t *testing.T) {
	out := sampleOutput(t)
	var buf bytes.Buffer
	if err := WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"execution span:", "PHASE TYPE", "resource utilization",
		"bottlenecks", "performance issues", "cpu@0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// TestWriteBottlenecksFollowsRows checks the bottleneck table prints the
// detection report's rows, in their order, with one evidence pointer each.
func TestWriteBottlenecksFollowsRows(t *testing.T) {
	out := sampleOutput(t)
	rows := out.Bottlenecks.Rows
	if len(rows) == 0 {
		t.Fatal("no bottleneck rows")
	}
	var buf bytes.Buffer
	if err := WriteBottlenecks(&buf, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := 2 + 2*len(rows); len(lines) != want {
		t.Fatalf("%d lines for %d rows, want %d:\n%s", len(lines), len(rows), want, buf.String())
	}
	for i, r := range rows {
		line := strings.Fields(lines[1+i])
		if line[0] != r.TypePath || line[1] != r.Resource || line[2] != r.Kind.String() {
			t.Errorf("table line %d = %q, want row %+v", i, lines[1+i], r)
		}
		if q := strings.TrimSpace(lines[2+len(rows)+i]); q != explainQuery(r) {
			t.Errorf("evidence pointer %d = %q, want %q", i, q, explainQuery(r))
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q", s)
	}
	runes := []rune(s)
	if runes[0] != ' ' || runes[2] != '█' {
		t.Fatalf("sparkline %q", s)
	}
	// Out-of-range values clamp.
	if Sparkline([]float64{5}, 1) != "█" {
		t.Fatal("clamp high failed")
	}
	if Sparkline([]float64{-1}, 1) != " " {
		t.Fatal("clamp low failed")
	}
	// Zero max defaults safely.
	if Sparkline([]float64{0.5}, 0) == "" {
		t.Fatal("zero max broke sparkline")
	}
}

func TestDownsampleColumns(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := downsampleColumns(vals, 10)
	if len(out) != 10 {
		t.Fatalf("%d columns", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("averages not increasing")
		}
	}
	short := downsampleColumns(vals[:5], 10)
	if len(short) != 5 {
		t.Fatal("short input resampled")
	}
}

func TestWriteConsumptionCSV(t *testing.T) {
	out := sampleOutput(t)
	var buf bytes.Buffer
	if err := WriteConsumptionCSV(&buf, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != out.Slices.Count+1 {
		t.Fatalf("%d lines, want %d", len(lines), out.Slices.Count+1)
	}
	if !strings.HasPrefix(lines[0], "slice,start_ns,") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestWriteTimeline(t *testing.T) {
	out := sampleOutput(t)
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, out, 60); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"/pagerank/execute/superstep/worker/compute/thread",
		"/pagerank/execute/superstep/worker/communicate",
		"per column",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}
	// Every row line is bounded by the requested width.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "|") && len([]rune(line)) > 140 {
			t.Fatalf("row too wide: %q", line)
		}
	}
}

func TestWriteTimelineEmptyTrace(t *testing.T) {
	out := sampleOutput(t)
	// Simulate a degenerate span by truncating: use 0 columns default path.
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, out, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestWriteCriticalPath(t *testing.T) {
	out := sampleOutput(t)
	var buf bytes.Buffer
	if err := WriteCriticalPath(&buf, out); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "/pagerank/") {
		t.Fatalf("critical path missing phases:\n%s", text)
	}
	if !strings.Contains(text, "%") {
		t.Fatalf("critical path missing shares:\n%s", text)
	}
}
