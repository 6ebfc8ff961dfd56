package enginelog

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestReadStatsSkipsMalformed(t *testing.T) {
	in := strings.Join([]string{
		"# header",
		"S 0 2 /app",
		"garbage line here",
		"S 10 0 /app/worker.0",
		"B 20 15 gc /app", // inverted interval: skipped
		"E 30 /app/worker.0",
		"C 31 msgs notanumber",
		"E 40 /app",
		"", // blank
	}, "\n")
	log, stats, _, err := ReadStats(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 4 {
		t.Fatalf("%d events, want 4: %+v", len(log.Events), log.Events)
	}
	if stats.Lines != 7 || stats.Events != 4 || stats.Skipped != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats.Degraded() || stats.FirstError == "" {
		t.Fatalf("stats should report degradation: %+v", stats)
	}
}

// TestParserIncremental feeds a text log one line at a time, as a producer
// appends it: each completed line is parsed and counted as soon as its '\n'
// arrives, and a line still missing its terminator waits.
func TestParserIncremental(t *testing.T) {
	var sp StreamParser
	var got []Event
	emit := func(e Event) { got = append(got, e) }
	sp.Feed([]byte("S 5 1 /app\n"), emit)
	if len(got) != 1 || got[0].Kind != PhaseStart || got[0].Machine != 1 {
		t.Fatalf("events = %+v", got)
	}
	sp.Feed([]byte("# comment\n"), emit)
	sp.Feed([]byte("E five /app\n"), emit)
	sp.Feed([]byte("E 9 /app"), emit)
	if len(got) != 1 {
		t.Fatalf("comment, malformed or unterminated line emitted: %+v", got)
	}
	s := sp.Stats()
	if s.Lines != 2 || s.Events != 1 || s.Skipped != 1 || s.FirstError == "" {
		t.Fatalf("stats = %+v", s)
	}
	sp.Feed([]byte("\n"), emit)
	if len(got) != 2 || got[1].Kind != PhaseEnd || got[1].Time != 9 {
		t.Fatalf("events = %+v", got)
	}
}

func TestReadStatsLongLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("S 0 0 /app\n")
	sb.WriteString("C 1 x ")
	sb.WriteString(strings.Repeat("9", MaxLineLen+10))
	sb.WriteString("\nE 2 /app\n")
	log, stats, _, err := ReadStats(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 2 {
		t.Fatalf("%d events, want 2", len(log.Events))
	}
	if stats.Truncated != 1 {
		t.Fatalf("stats = %+v, want 1 truncated", stats)
	}
}

// readClean decodes a log that must be clean: the strict counterpart of
// ReadStats for round-trip tests, failing on any skipped or truncated input.
func readClean(r io.Reader) (*Log, error) {
	log, stats, _, err := ReadStats(r)
	if err != nil {
		return nil, err
	}
	if stats.Degraded() {
		return nil, fmt.Errorf("degraded decode: %+v", stats)
	}
	return log, nil
}

// writtenShapes holds one event of every start, end and blocking shape
// Write produces: bound and unbound machines, the largest timestamps the
// fast path takes and one past them, and nested indexed paths.
var writtenShapes = []Event{
	{Kind: PhaseStart, Time: 0, Machine: 2, Path: "/app"},
	{Kind: PhaseStart, Time: 17, Machine: -1, Path: "/app/superstep.3/worker.12/compute/thread.0"},
	{Kind: PhaseStart, Time: 999_999_999_999_999_999, Machine: 1023, Path: "/app/load"},
	{Kind: PhaseStart, Time: 1_000_000_000_000_000_000, Machine: 0, Path: "/app/load"},
	{Kind: PhaseEnd, Time: 123_456_789, Path: "/app/superstep.3"},
	{Kind: PhaseEnd, Time: -5, Path: "/app"},
	{Kind: Blocked, Time: 5, End: 9, Resource: "gc", Path: "/app/worker.0"},
	{Kind: Blocked, Time: 5, End: 5, Resource: "msgqueue", Path: "/app/worker.0"},
	{Kind: Counter, Time: 3, Name: "msgs", Value: 1.5},
}

// TestParseFastTakesWrittenLines checks that the fast path is the common
// one: it takes every start, end and blocking line Write produces whose
// integers have at most 18 digits, and decodes each to the written event.
func TestParseFastTakesWrittenLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Log{Events: writtenShapes}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, line := range lines {
		e, ok := parseFast(line)
		want := writtenShapes[i].Kind != Counter && writtenShapes[i].Time < 1e18
		if ok != want {
			t.Errorf("%q: fast path took it = %v, want %v", line, ok, want)
		}
		if ok && e != writtenShapes[i] {
			t.Errorf("%q: fast path %+v, written %+v", line, e, writtenShapes[i])
		}
	}
}
