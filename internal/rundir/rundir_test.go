package rundir

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

func sampleRun() *Run {
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/a", 0)
	now = vtime.Time(50 * vtime.Millisecond)
	l.BlockedSince("/job/a", "gc", now.Add(-10*vtime.Millisecond))
	now = vtime.Time(100 * vtime.Millisecond)
	l.EndPhase("/job/a")
	l.EndPhase("/job")

	mon := []cluster.ResourceSamples{
		{
			Machine: 0, Resource: "cpu", Capacity: 8,
			Samples: &metrics.SampleSeries{Samples: []metrics.Sample{
				{Start: 0, End: vtime.Time(50 * vtime.Millisecond), Avg: 3.5},
				{Start: vtime.Time(50 * vtime.Millisecond), End: vtime.Time(100 * vtime.Millisecond), Avg: 1.25},
			}},
		},
		{
			Machine: 1, Resource: "net-out", Capacity: 1e8,
			Samples: &metrics.SampleSeries{Samples: []metrics.Sample{
				{Start: 0, End: vtime.Time(100 * vtime.Millisecond), Avg: 5e6},
			}},
		},
	}
	return &Run{
		Info: Info{
			Engine: "giraph", Job: "job", Workers: 2, ThreadsPerWorker: 4,
			Cores: 8, NetBandwidth: 1e8, StartNS: 0, EndNS: int64(100 * vtime.Millisecond),
		},
		Log:        l.Log(),
		Monitoring: mon,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run := sampleRun()
	if err := SaveOpts(dir, run, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Info, run.Info) {
		t.Fatalf("info %+v vs %+v", back.Info, run.Info)
	}
	if len(back.Log.Events) != len(run.Log.Events) {
		t.Fatalf("%d vs %d log events", len(back.Log.Events), len(run.Log.Events))
	}
	for i := range run.Log.Events {
		if back.Log.Events[i] != run.Log.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if len(back.Monitoring) != 2 {
		t.Fatalf("%d monitoring series", len(back.Monitoring))
	}
	cpu := back.Monitoring[0]
	if cpu.Machine != 0 || cpu.Resource != "cpu" || cpu.Capacity != 8 {
		t.Fatalf("cpu meta %+v", cpu)
	}
	if len(cpu.Samples.Samples) != 2 || cpu.Samples.Samples[1].Avg != 1.25 {
		t.Fatalf("cpu samples %+v", cpu.Samples.Samples)
	}
}

func TestInfoVersionCompat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run := sampleRun()
	if err := SaveOpts(dir, run, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if run.Info.Version != InfoVersion {
		t.Fatalf("Save stamped version %d, want %d", run.Info.Version, InfoVersion)
	}

	// Forward direction: a pre-versioning run.json (no version field, as all
	// runs before the field existed) loads as version 1.
	meta, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(meta),
		fmt.Sprintf("\"version\": %d,\n  ", InfoVersion), "", 1)
	if legacy == string(meta) {
		t.Fatal("fixture did not strip the version field")
	}
	if err := os.WriteFile(filepath.Join(dir, "run.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Info.Version != 1 {
		t.Fatalf("legacy run.json loaded as version %d, want 1", back.Info.Version)
	}

	// Backward direction: a run.json from a future schema is rejected.
	future := strings.Replace(string(meta),
		fmt.Sprintf("\"version\": %d", InfoVersion), "\"version\": 99", 1)
	if err := os.WriteFile(filepath.Join(dir, "run.json"), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future run.json: err = %v", err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestMonitoringCSVErrors(t *testing.T) {
	bad := []string{
		"0,cpu,8,0,100\n",                      // 5 fields
		"x,cpu,8,0,100,1\n",                    // bad machine
		"0,cpu,cap,0,100,1\n",                  // bad capacity
		"0,cpu,8,zero,100,1\n",                 // bad start
		"0,cpu,8,0,end,1\n",                    // bad end
		"0,cpu,8,0,100,avg\n",                  // bad avg
		"0,cpu,8,0,100,NaN\n",                  // non-finite avg
		"0,cpu,8,0,100,-Inf\n",                 // non-finite avg
		"0,cpu,+Inf,0,100,1\n",                 // non-finite capacity
		"0,cpu,nan,0,100,1\n",                  // non-finite capacity
		"0,cpu,8,0,100,1\n0,cpu,8,200,300,1\n", // gap between samples
	}
	for _, in := range bad {
		if _, err := ReadMonitoring(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestMonitoringNonFiniteLineNumber: a NaN sample fails the batch read and
// the error names its line.
func TestMonitoringNonFiniteLineNumber(t *testing.T) {
	in := "machine,resource,capacity,start_ns,end_ns,avg\n0,cpu,8,0,100,1\n0,cpu,8,100,200,NaN\n"
	_, err := ReadMonitoring(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("err = %v, want a non-finite error on line 3", err)
	}
}

func TestMonitoringSkipsHeaderAndComments(t *testing.T) {
	in := "machine,resource,capacity,start_ns,end_ns,avg\n# comment\n\n0,cpu,4,0,100,2\n"
	out, err := ReadMonitoring(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Samples.Samples[0].Avg != 2 {
		t.Fatalf("out = %+v", out)
	}
}

func TestWriteMonitoringFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMonitoring(&buf, sampleRun().Monitoring); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("%d lines: %v", len(lines), lines)
	}
	if lines[1] != "0,cpu,8,0,50000000,3.5" {
		t.Fatalf("line 1 = %q", lines[1])
	}
}

func TestSaveLoadBinaryLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run := sampleRun()
	if err := SaveOpts(dir, run, SaveOptions{BinaryLog: true}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if enginelog.DetectFormat(raw) != enginelog.FormatBinary {
		t.Fatal("execution.log not written in binary format")
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.LogFormat != enginelog.FormatBinary {
		t.Fatalf("LogFormat = %v, want binary", back.LogFormat)
	}
	if back.LogBytes != int64(len(raw)) {
		t.Fatalf("LogBytes = %d, want %d", back.LogBytes, len(raw))
	}
	if len(back.Log.Events) != len(run.Log.Events) {
		t.Fatalf("%d vs %d log events", len(back.Log.Events), len(run.Log.Events))
	}
	for i := range run.Log.Events {
		if back.Log.Events[i] != run.Log.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if back.LogStats.Degraded() {
		t.Fatalf("binary log loaded degraded: %+v", back.LogStats)
	}

	// The text variant of the same run must load to the identical events.
	textDir := filepath.Join(t.TempDir(), "run-text")
	if err := SaveOpts(textDir, run, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	textBack, err := Load(textDir)
	if err != nil {
		t.Fatal(err)
	}
	if textBack.LogFormat != enginelog.FormatText {
		t.Fatalf("LogFormat = %v, want text", textBack.LogFormat)
	}
	if !reflect.DeepEqual(textBack.Log.Events, back.Log.Events) {
		t.Fatal("text and binary run dirs loaded different events")
	}
}
