package enginelog

import (
	"bytes"
	"strings"
	"testing"

	"grade10/internal/vtime"
)

func TestPathHelpers(t *testing.T) {
	p := Join("/", "pagerank")
	p = Join(p, "execute")
	p = JoinIndexed(p, "superstep", 3)
	p = JoinIndexed(p, "worker", 12)
	if p != "/pagerank/execute/superstep.3/worker.12" {
		t.Fatalf("path = %q", p)
	}
	if got := TypePath(p); got != "/pagerank/execute/superstep/worker" {
		t.Fatalf("type path = %q", got)
	}
	if got := Parent(p); got != "/pagerank/execute/superstep.3" {
		t.Fatalf("parent = %q", got)
	}
	if got := Parent("/pagerank"); got != "/" {
		t.Fatalf("top parent = %q", got)
	}
	segs := Split(p)
	if len(segs) != 4 || segs[2] != "superstep.3" {
		t.Fatalf("segments = %v", segs)
	}
	if SegmentName("superstep.3") != "superstep" || SegmentIndex("superstep.3") != 3 {
		t.Fatal("segment parsing wrong")
	}
	if SegmentName("compute") != "compute" || SegmentIndex("compute") != -1 {
		t.Fatal("unindexed segment parsing wrong")
	}
	if Split("/") != nil {
		t.Fatal("root split not empty")
	}
}

// TestSegmentIndex: a segment's index is its digit run after the last dot,
// leading zeros allowed; an empty, non-digit or overlong run (one that
// could overflow an int) is no index, as is a segment without a dot.
func TestSegmentIndex(t *testing.T) {
	for _, c := range []struct {
		segment string
		want    int
	}{
		{"superstep", -1},
		{"superstep.", -1},
		{".", -1},
		{"superstep.0", 0},
		{"superstep.3", 3},
		{"superstep.03", 3},
		{".7", 7},
		{"a.b.12", 12},
		{"weird.x2", -1},
		{"weird.2x", -1},
		{"weird.-1", -1},
		{"superstep.999999999999999999", 999999999999999999},
		{"superstep.000000000000000042", 42},
		{"superstep.9999999999999999999", -1},
		{"superstep.0000000000000000042", -1},
	} {
		if got := SegmentIndex(c.segment); got != c.want {
			t.Errorf("SegmentIndex(%q) = %d, want %d", c.segment, got, c.want)
		}
	}
}

func TestLoggerAccumulates(t *testing.T) {
	now := vtime.Time(0)
	l := NewLogger(func() vtime.Time { return now })
	l.StartPhase("/app", 0)
	now = vtime.Time(100 * vtime.Millisecond)
	l.BlockedSince("/app", "gc", now.Add(-30*vtime.Millisecond))
	l.AddCounter("messages", 42)
	now = vtime.Time(200 * vtime.Millisecond)
	l.EndPhase("/app")

	ev := l.Log().Events
	if len(ev) != 4 {
		t.Fatalf("%d events", len(ev))
	}
	if ev[0].Kind != PhaseStart || ev[0].Machine != 0 {
		t.Fatal("start event wrong")
	}
	b := ev[1]
	if b.Kind != Blocked || b.Resource != "gc" ||
		b.Time != vtime.Time(70*vtime.Millisecond) || b.End != vtime.Time(100*vtime.Millisecond) {
		t.Fatalf("blocked event %+v", b)
	}
	if ev[2].Kind != Counter || ev[2].Value != 42 {
		t.Fatal("counter event wrong")
	}
	if ev[3].Kind != PhaseEnd || ev[3].Time != vtime.Time(200*vtime.Millisecond) {
		t.Fatal("end event wrong")
	}
}

func TestLoggerDropsEmptyBlocks(t *testing.T) {
	l := NewLogger(func() vtime.Time { return 50 })
	l.BlockedSince("/a", "gc", 50)
	l.BlockedSince("/a", "gc", 60) // "since" in the future: dropped
	if len(l.Log().Events) != 0 {
		t.Fatalf("%d events, want 0", len(l.Log().Events))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	now := vtime.Time(0)
	l := NewLogger(func() vtime.Time { return now })
	l.StartPhase("/app", -1)
	l.StartPhase("/app/worker.0", 0)
	now = vtime.Time(10 * vtime.Millisecond)
	l.BlockedSince("/app/worker.0", "msgqueue", now.Add(-4*vtime.Millisecond))
	l.AddCounter("bytes-sent", 1.5e6)
	now = vtime.Time(20 * vtime.Millisecond)
	l.EndPhase("/app/worker.0")
	l.EndPhase("/app")

	var buf bytes.Buffer
	if err := Write(&buf, l.Log()); err != nil {
		t.Fatal(err)
	}
	back, err := readClean(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.Log().Events, back.Events
	if len(a) != len(b) {
		t.Fatalf("%d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nS 0 2 /app\nE 10 /app\n"
	log, err := readClean(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 2 || log.Events[0].Machine != 2 {
		t.Fatalf("events = %+v", log.Events)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"X 0 /app\n",
		"S 0 /app\n",           // missing machine
		"S zero 1 /app\n",      // bad timestamp
		"B 10 5 gc /app\n",     // inverted interval
		"C 0 name abc\n",       // bad value
		"S 0 one /app\n",       // bad machine
		"B 0 x gc /app\n",      // bad end
		"E 5 /app extra arg\n", // too many fields
	}
	for _, in := range bad {
		if _, err := readClean(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}
