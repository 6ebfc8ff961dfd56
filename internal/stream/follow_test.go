package stream_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"grade10/internal/enginelog"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/stream"
)

// TestFollowCountsMalformedMonitoring: a followed run's malformed monitoring
// rows (one garbage row, one NaN row) reach the engine and are counted as
// invalid samples, as they are when fed through IngestMonitoringLine
// directly.
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
	e, _, err := stream.Follow(dir, opt, nil, func(info rundir.Info) (*stream.Engine, error) {
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
	e, _, err := stream.Follow(dir, opt, nil, func(info rundir.Info) (*stream.Engine, error) {
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

// saveRun writes the fixture run the way cmd/runsim does (rundir.SaveOpts),
// after edit, when set, changed a copy of it, and returns the directory.
func saveRun(t testing.TB, f *fixture, binary bool, edit func(*rundir.Run)) string {
	t.Helper()
	run := *f.run
	run.Log = &enginelog.Log{Events: slices.Clone(f.run.Log.Events)}
	if edit != nil {
		edit(&run)
	}
	dir := t.TempDir()
	if err := rundir.SaveOpts(dir, &run, rundir.SaveOptions{BinaryLog: binary}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// retainFor builds a retain-mode engine from run metadata with the
// fixture's models, so its report compares byte for byte with the batch one.
func retainFor(f *fixture) func(rundir.Info) (*stream.Engine, error) {
	return func(info rundir.Info) (*stream.Engine, error) {
		return stream.NewForRun(info, stream.Config{Models: f.models, RetainForFinal: true})
	}
}

// TestFollowCompleteRunZeroIdlePolls: a complete run directory, as SaveOpts
// writes it, ends the follow after its first poll. Poll and Idle are an hour,
// so any sleep would hang the test; the follow must not count as idle, and
// the finalized report is the batch one.
func TestFollowCompleteRunZeroIdlePolls(t *testing.T) {
	f := getFixture(t)
	for _, binary := range []bool{false, true} {
		dir := saveRun(t, f, binary, nil)
		type result struct {
			e    *stream.Engine
			idle bool
			err  error
		}
		done := make(chan result, 1)
		go func() {
			e, idle, err := stream.Follow(dir, rundir.FollowOptions{Poll: time.Hour, Idle: time.Hour}, nil, retainFor(f))
			done <- result{e, idle, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("binary=%v: Follow still waiting on a complete run", binary)
		}
		if r.err != nil || r.e == nil || r.idle {
			t.Fatalf("binary=%v: Follow = (engine %v, idle %v, %v), want a complete run", binary, r.e != nil, r.idle, r.err)
		}
		out, err := r.e.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := report.WriteAll(&got, out); err != nil {
			t.Fatal(err)
		}
		if got.String() != f.batchText {
			t.Fatalf("binary=%v: followed report differs from the batch report", binary)
		}
		if st := r.e.Stats(); st.ForcedClosures != 0 {
			t.Fatalf("binary=%v: %d forced closures on a complete run", binary, st.ForcedClosures)
		}
	}
}

// TestFollowIncompleteRunEndsThroughIdle: a run directory whose content never
// completes, or whose metadata cannot say when it would, must not finish
// early: each row still ends through Idle and finalizes.
func TestFollowIncompleteRunEndsThroughIdle(t *testing.T) {
	f := getFixture(t)
	root := f.run.Log.Events[0].Path
	rows := []struct {
		name   string
		binary bool
		edit   func(*rundir.Run)
		after  func(t *testing.T, dir string)
		forced bool
	}{
		{name: "missing end_ns", after: func(t *testing.T, dir string) {
			rewriteFile(t, filepath.Join(dir, "run.json"), func(data []byte) []byte {
				var meta map[string]any
				if err := json.Unmarshal(data, &meta); err != nil {
					t.Fatal(err)
				}
				delete(meta, "end_ns")
				out, err := json.Marshal(meta)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		}},
		{name: "monitoring one sample short", after: func(t *testing.T, dir string) {
			rewriteFile(t, filepath.Join(dir, "monitoring.csv"), func(data []byte) []byte {
				rows := strings.SplitAfter(string(data), "\n")
				return []byte(strings.Join(rows[:len(rows)-2], ""))
			})
		}},
		{name: "root phase never ends", forced: true, edit: func(run *rundir.Run) {
			evs := run.Log.Events
			for i := len(evs) - 1; i >= 0; i-- {
				if evs[i].Kind == enginelog.PhaseEnd && evs[i].Path == root {
					run.Log.Events = slices.Delete(evs, i, i+1)
					return
				}
			}
			t.Fatal("fixture log has no root end event")
		}},
		{name: "trailing partial binary record", binary: true, after: func(t *testing.T, dir string) {
			rewriteFile(t, filepath.Join(dir, "execution.log"), func(data []byte) []byte {
				return append(data, data[len(enginelog.Magic)+1]) // a record tag with no body
			})
		}},
	}
	opt := rundir.FollowOptions{Poll: 5 * time.Millisecond, Idle: 50 * time.Millisecond}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := saveRun(t, f, row.binary, row.edit)
			if row.after != nil {
				row.after(t, dir)
			}
			e, idle, err := stream.Follow(dir, opt, nil, retainFor(f))
			if err != nil || e == nil || !idle {
				t.Fatalf("Follow = (engine %v, idle %v, %v), want the Idle fallback", e != nil, idle, err)
			}
			if _, err := e.Finalize(); err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if st := e.Stats(); row.forced != (st.ForcedClosures > 0) {
				t.Fatalf("%d forced closures, want some: %v", st.ForcedClosures, row.forced)
			}
		})
	}
}

// rewriteFile replaces a file's contents with edit's result.
func rewriteFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
