package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\three\"\n", `all\\three\"\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := EscapeLabel(c.in); got != c.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegistryOutputStableAndEscaped(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("g10_events_total", "Total events.")
	c.Add(3)
	v := r.CounterVec("g10_by_phase_total", "Per-phase events.", "phase")
	// Registered out of sorted order; output must sort children.
	v.With(`b"ad\ph` + "\n" + `ase`).Add(2)
	v.With("Superstep").Inc()
	g := r.Gauge("g10_open_phases", "Open phases.")
	g.Set(4)
	r.GaugeFunc("g10_answer", "The answer.", func() float64 { return 42 })

	var b1, b2 bytes.Buffer
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("repeated renders differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE g10_events_total counter",
		"g10_events_total 3",
		`g10_by_phase_total{phase="Superstep"} 1`,
		`g10_by_phase_total{phase="b\"ad\\ph\nase"} 2`,
		"# TYPE g10_open_phases gauge",
		"g10_open_phases 4",
		"g10_answer 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families appear in registration order.
	if strings.Index(out, "g10_events_total") > strings.Index(out, "g10_by_phase_total") {
		t.Errorf("families not in registration order:\n%s", out)
	}
	// Children appear in sorted label order (Superstep < b...).
	if strings.Index(out, `phase="Superstep"`) > strings.Index(out, `phase="b\"`) {
		t.Errorf("children not sorted:\n%s", out)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("g10_stage_seconds", "Stage durations.", []float64{0.01, 0.1, 1}).With()
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`g10_stage_seconds_bucket{le="0.01"} 1`,
		`g10_stage_seconds_bucket{le="0.1"} 2`,
		`g10_stage_seconds_bucket{le="1"} 2`,
		`g10_stage_seconds_bucket{le="+Inf"} 3`,
		"g10_stage_seconds_sum 5.055",
		"g10_stage_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	hv := r.HistogramVec("g10_labeled_seconds", "Labeled durations.", []float64{1}, "stage")
	hv.With("parse").Observe(0.5)
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `g10_labeled_seconds_bucket{stage="parse",le="1"} 1`) {
		t.Errorf("labeled histogram bucket missing le merge:\n%s", buf.String())
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	var hooked int
	tr.OnRecord(func(SpanRecord) { hooked++ })
	s := tr.StartSpan("parse-log", -1)
	s.SetDetail("run1")
	s.SetItems(100)
	s.SetWindow(0, 1e9)
	s.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	r := spans[0]
	if r.Stage != "parse-log" || r.Worker != -1 || r.Detail != "run1" ||
		r.Items != 100 || !r.HasWindow || r.VEndNS != 1e9 {
		t.Errorf("unexpected record: %+v", r)
	}
	if r.Dur < 0 || r.Seq != 1 {
		t.Errorf("bad dur/seq: %+v", r)
	}
	if hooked != 1 {
		t.Errorf("OnRecord hook ran %d times, want 1", hooked)
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer()
	const total = DefaultMaxSpans + 12
	for i := 0; i < total; i++ {
		s := tr.StartSpan("stage", 0)
		s.End()
	}
	spans := tr.Spans()
	if len(spans) > DefaultMaxSpans {
		t.Fatalf("ring retained %d spans, max %d", len(spans), DefaultMaxSpans)
	}
	if tr.Dropped() == 0 {
		t.Error("expected dropped spans to be counted")
	}
	// The newest span must survive.
	if spans[len(spans)-1].Seq != total {
		t.Errorf("newest span missing, last seq = %d", spans[len(spans)-1].Seq)
	}
}

func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartSpan("hot", 3)
		s.SetDetail("x")
		s.SetItems(1)
		s.SetWindow(0, 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per op, want 0", allocs)
	}
}

func TestTraceBuilderValidateAndStableJSON(t *testing.T) {
	build := func() *TraceBuilder {
		b := NewTraceBuilder()
		b.ProcessName(1, "pipeline")
		b.ThreadName(1, 0, "main")
		b.Begin(1, 0, "parse", 0, map[string]any{"items": 10})
		b.Begin(1, 0, "inner", 5, nil)
		b.End(1, 0, 8)
		b.End(1, 0, 12)
		b.Counter(2, "cpu", 3, map[string]float64{"busy": 0.5, "idle": 0.5})
		b.Instant(2, 0, "bottleneck", 7, "p", nil)
		return b
	}
	b := build()
	if err := b.ValidateTrace(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	var j1, j2 bytes.Buffer
	if err := b.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("identical builders produced different JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(j1.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
}

func TestTraceBuilderValidateCatchesErrors(t *testing.T) {
	b := NewTraceBuilder()
	b.Begin(1, 0, "open", 0, nil)
	if err := b.ValidateTrace(); err == nil {
		t.Error("unclosed B not caught")
	}
	b2 := NewTraceBuilder()
	b2.End(1, 0, 0)
	if err := b2.ValidateTrace(); err == nil {
		t.Error("E without B not caught")
	}
	b3 := NewTraceBuilder()
	b3.Begin(1, 0, "a", 10, nil)
	b3.End(1, 0, 5)
	if err := b3.ValidateTrace(); err == nil {
		t.Error("non-monotone ts not caught")
	}
}

func TestNewLoggerTextKeepsPrefix(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "grade10", "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("characterized run", "phases", 12)
	lg.Warn("skipped lines", "n", 3)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "grade10: characterized run phases=12" {
		t.Errorf("info line = %q", lines[0])
	}
	if lines[1] != "grade10: WARN skipped lines n=3" {
		t.Errorf("warn line = %q", lines[1])
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "serve", "json", "")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("listening", "addr", ":8080")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "listening" || rec["cmd"] != "serve" || rec["addr"] != ":8080" {
		t.Errorf("unexpected record: %v", rec)
	}
	if _, err := NewLogger(&buf, "serve", "yaml", "info"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "serve", "text", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("noise")
	lg.Info("quiet")
	lg.Warn("kept")
	if got := strings.TrimSpace(buf.String()); got != "serve: WARN kept" {
		t.Errorf("warn-level output = %q", got)
	}
	buf.Reset()
	lg, err = NewLogger(&buf, "serve", "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("verbose", "k", 1)
	if got := strings.TrimSpace(buf.String()); got != "serve: DEBUG verbose k=1" {
		t.Errorf("debug-level output = %q", got)
	}
	if _, err := NewLogger(&buf, "serve", "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestBuildInfo(t *testing.T) {
	ver, gover := BuildInfo()
	if ver == "" || !strings.HasPrefix(gover, "go") {
		t.Fatalf("BuildInfo() = (%q, %q)", ver, gover)
	}
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	RegisterBuildInfo(reg) // registration is fetch-or-create: idempotent
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `grade10_build_info{version="` + ver + `",go_version="` + gover + `"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, buf.String())
	}
}
