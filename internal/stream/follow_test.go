package stream_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grade10/internal/enginelog"
	"grade10/internal/rundir"
	"grade10/internal/stream"
)

// TestFollowCountsMalformedMonitoring: a followed run's malformed monitoring
// rows (one garbage row, one NaN row) reach the engine and are counted as
// invalid samples, as they are when fed through IngestMonitoringLine
// directly. The rows land before run.json, so they also cross the buffer
// Follow keeps until the engine exists.
func TestFollowCountsMalformedMonitoring(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"execution.log":  "S 0 0 /pagerank\nE 200 /pagerank\n",
		"monitoring.csv": "machine,resource,capacity,start_ns,end_ns,avg\n0,cpu,8,0,100,2\nnot,a,row\n0,cpu,8,100,200,NaN\n",
		"run.json":       `{"engine":"giraph","job":"pagerank","workers":1,"threads_per_worker":1,"cores":8,"net_bandwidth":1e8}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opt := rundir.FollowOptions{Poll: 5 * time.Millisecond, Idle: 50 * time.Millisecond}
	e, err := stream.Follow(dir, opt, nil, func(info rundir.Info) (*stream.Engine, error) {
		return stream.NewForRun(info, stream.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("no engine: run.json not seen")
	}
	if st := e.Stats(); st.InvalidSamples != 2 {
		t.Fatalf("InvalidSamples = %d, want 2 (stats %+v)", st.InvalidSamples, st)
	}
}

// TestFollowCountsOverlongMonitoring: an over-long monitoring line the
// followed tail drops is counted in the engine's truncated_lines, like an
// over-long log line, and the rows around it still arrive.
func TestFollowCountsOverlongMonitoring(t *testing.T) {
	dir := t.TempDir()
	overlong := strings.Repeat("x", enginelog.MaxLineLen) + "\n"
	for name, data := range map[string]string{
		"execution.log":  "S 0 0 /pagerank\nE 200 /pagerank\n",
		"monitoring.csv": "0,cpu,8,0,100,2\n" + overlong + "0,cpu,8,100,200,2\n",
		"run.json":       `{"engine":"giraph","job":"pagerank","workers":1,"threads_per_worker":1,"cores":8,"net_bandwidth":1e8}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opt := rundir.FollowOptions{Poll: 5 * time.Millisecond, Idle: 50 * time.Millisecond}
	e, err := stream.Follow(dir, opt, nil, func(info rundir.Info) (*stream.Engine, error) {
		return stream.NewForRun(info, stream.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("no engine: run.json not seen")
	}
	if st := e.Stats(); st.Truncated != 1 || st.Samples != 2 || st.InvalidSamples != 0 {
		t.Fatalf("stats %+v, want 1 truncated line and 2 samples", st)
	}
}
