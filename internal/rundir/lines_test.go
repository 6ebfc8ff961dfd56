package rundir

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grade10/internal/enginelog"
)

// TestLineLimitAgrees pins the one line-length rule (a line counts its '\n'
// toward enginelog.MaxLineLen) on every path that reads run-directory text:
// batch ReadStats, StreamParser fed chunk by chunk, strict ReadMonitoring,
// and the followed monitoring tail. Each case is a padded but valid line of
// n bytes before its '\n', then one more valid line, split in two at several
// offsets, including right before and right after the '\n'.
func TestLineLimitAgrees(t *testing.T) {
	pad := func(line string, n int) string { return line + strings.Repeat(" ", n-len(line)) + "\n" }
	for _, n := range []int{enginelog.MaxLineLen - 1, enginelog.MaxLineLen, enginelog.MaxLineLen + 1} {
		kept := n+1 <= enginelog.MaxLineLen
		wantEvents, wantTrunc, wantLines := 1, 1, 1
		if kept {
			wantEvents, wantTrunc, wantLines = 2, 0, 2
		}
		logData := []byte(pad("S 0 0 /app", n) + "E 5 /app\n")
		monData := []byte(pad("0,cpu,4,0,100,2", n) + "0,cpu,4,100,200,2\n")
		for _, cut := range []int{1, 7, n / 2, n, n + 1, len(logData) - 1} {
			name := fmt.Sprintf("len=%d/cut=%d", n, cut)
			split := func(data []byte) io.Reader {
				return io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:]))
			}

			log, st, _, err := enginelog.ReadStats(split(logData))
			if err != nil || len(log.Events) != wantEvents || st.Events != wantEvents || st.Truncated != wantTrunc {
				t.Fatalf("%s: ReadStats: %d events, stats %+v, err %v; want %d events, %d truncated",
					name, len(log.Events), st, err, wantEvents, wantTrunc)
			}

			var sp enginelog.StreamParser
			events := 0
			emit := func(enginelog.Event) { events++ }
			sp.Feed(logData[:cut], emit)
			sp.Feed(logData[cut:], emit)
			sp.Finish(emit)
			if st := sp.Stats(); events != wantEvents || st.Truncated != wantTrunc {
				t.Fatalf("%s: StreamParser: %d events, stats %+v", name, events, st)
			}

			mon, err := ReadMonitoring(split(monData))
			if kept {
				if err != nil || len(mon) != 1 || len(mon[0].Samples.Samples) != 2 {
					t.Fatalf("%s: ReadMonitoring: %+v, %v", name, mon, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "line 1: longer than") {
				t.Fatalf("%s: ReadMonitoring: want an over-long error on line 1, got %v", name, err)
			}

			dir := t.TempDir()
			var lines []string
			f := followerWithInfo(t, dir, FollowSink{MonitoringLine: func(l string) { lines = append(lines, l) }})
			for _, piece := range [][]byte{monData[:cut], monData[cut:]} {
				appendFile(t, filepath.Join(dir, monitoringFile), piece)
				if _, err := f.poll(); err != nil {
					t.Fatal(err)
				}
			}
			f.finish()
			if len(lines) != wantLines || f.mon.lines.Truncated() != wantTrunc ||
				lines[len(lines)-1] != "0,cpu,4,100,200,2\n" {
				t.Fatalf("%s: tail delivered %d lines, %d truncated", name, len(lines), f.mon.lines.Truncated())
			}
		}
	}
}

// TestTailBoundsHostileLine: a newline-free monitoring.csv three times the
// line limit never makes the followed tail hold more than MaxLineLen bytes of
// it. Once the line ends, it is counted as truncated, not passed on, and the
// valid row after it is delivered.
func TestTailBoundsHostileLine(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	f := followerWithInfo(t, dir, FollowSink{MonitoringLine: func(l string) { lines = append(lines, l) }})
	path := filepath.Join(dir, monitoringFile)
	garbage := bytes.Repeat([]byte("x"), 100_000)
	for written := 0; written < 3<<20; written += len(garbage) {
		appendFile(t, path, garbage)
		if _, err := f.poll(); err != nil {
			t.Fatal(err)
		}
		if r := f.mon.lines.Retained(); r > enginelog.MaxLineLen {
			t.Fatalf("after %d bytes the tail holds %d bytes of one line", written+len(garbage), r)
		}
	}
	if len(lines) != 0 {
		t.Fatalf("partial hostile line passed on: %d lines", len(lines))
	}
	appendFile(t, path, []byte("\n0,cpu,4,0,100,2\n"))
	if _, err := f.poll(); err != nil {
		t.Fatal(err)
	}
	f.finish()
	if len(lines) != 1 || lines[0] != "0,cpu,4,0,100,2\n" {
		t.Fatalf("delivered %q, want only the valid row", lines)
	}
	if n := f.mon.lines.Truncated(); n != 1 {
		t.Fatalf("truncated = %d, want 1", n)
	}
}

// followerWithInfo writes a run.json into dir and returns a follower over it
// that has already parsed it, so its polls deliver data.
func followerWithInfo(t testing.TB, dir string, sink FollowSink) *follower {
	t.Helper()
	appendFile(t, filepath.Join(dir, infoFile), []byte(`{"engine":"giraph","job":"job"}`))
	f := newFollower(dir, sink)
	if _, err := f.poll(); err != nil || !f.infoSeen {
		t.Fatalf("run.json not seen (err %v)", err)
	}
	return f
}

func appendFile(t testing.TB, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
