package enginelog

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse feeds arbitrary bytes through ReadStats: it must not panic, must
// never return a parse failure (only count it), and every event it accepts
// must survive a write/read round trip that decodes clean.
func FuzzParse(f *testing.F) {
	f.Add("S 0 2 /app\nE 10 /app\n")
	f.Add("B 5 9 gc /app/worker.0\nC 3 msgs 1.5\n")
	f.Add("# comment\n\nS zero 1 /app\n")
	f.Add("S 9223372036854775807 -1 /a\nE -9223372036854775808 /a\n")
	f.Add("B 10 5 gc /app\nX what\nS 0\n")
	f.Add(strings.Repeat("A", 300) + " 1 2 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		log, stats, _, err := ReadStats(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadStats returned I/O error on in-memory input: %v", err)
		}
		if stats.Events != len(log.Events) {
			t.Fatalf("stats.Events = %d, got %d events", stats.Events, len(log.Events))
		}
		if stats.Events+stats.Skipped != stats.Lines {
			t.Fatalf("stats inconsistent: %+v", stats)
		}
		if stats.Skipped > 0 && stats.FirstError == "" {
			t.Fatalf("skipped lines but no FirstError: %+v", stats)
		}

		// Accepted events must round-trip through the writer and decode clean.
		var buf bytes.Buffer
		if werr := Write(&buf, log); werr != nil {
			t.Fatalf("Write of parsed events failed: %v", werr)
		}
		back, rerr := readClean(&buf)
		if rerr != nil {
			t.Fatalf("round trip rejected accepted events: %v\ninput: %q", rerr, in)
		}
		if len(back.Events) != len(log.Events) {
			t.Fatalf("round trip: %d events, want %d", len(back.Events), len(log.Events))
		}
		for i := range back.Events {
			if back.Events[i] != log.Events[i] {
				t.Fatalf("round trip event %d: %+v != %+v", i, back.Events[i], log.Events[i])
			}
		}
	})
}

// FuzzParseFastMatchesGeneral checks the text decoder's fast path against
// the general one: every line parseFast takes is printable ASCII in fields
// split by single spaces, and the field split and parseEvent must accept it
// and decode it to the identical Event.
func FuzzParseFastMatchesGeneral(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, &Log{Events: writtenShapes}); err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		f.Add(line)
	}
	for _, near := range []string{
		"S 0  2 /app", "E 10\t/app", "B 5 9 gc\t/app/worker.0", " S 0 2 /app", "E 10 /app ",
		"S +5 2 /app", "E +10 /app", "S 0 +2 /app", "B 5 +9 gc /app",
		"S 1234567890123456789 2 /app", "E 9223372036854775807 /app", "S 9999999999999999999 2 /app", "S 0 -1234567890123456789 /a",
		"E -5 /app", "S 0 -0 /app", "E - /app", "S 0 - /app", "E 007 /app",
		"B 9 5 gc /app", "B -1 -2 gc /app", "B 5 5 gc /app",
		"E 10 /app/wörker.0", "S 0 2 /app\u0085", "B 5 9 g c /app", "E 10 /app\r", "E 10 /app\r\n",
		"S 0 2", "E 10", "B 5 9 gc", "B 5 9 gc ", "S 0 2 /a /b", "E 10 /a b", "SX 0 2 /app", "S", "S ",
		"C 3 msgs 1.5", "E 10 /a\x00b", "E 10 /a\x7fb",
		"E 10 /app/worker.0/compute\tx", "E 10 /abcdefg\x85hijklmnop", "E 10 /abcdefghijklmno p",
		"B 5 9 averyveryverylongresourcename /app/worker.0", "B 5 9 averyveryverylong\vname /app",
	} {
		f.Add(near)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fast, ok := parseFast(line)
		if !ok {
			return
		}
		if strings.Contains(line, "  ") || strings.ContainsFunc(line, func(r rune) bool {
			return r >= utf8.RuneSelf || r < ' '
		}) {
			t.Fatalf("%q: fast path took a line that is not printable ASCII in single-spaced fields", line)
		}
		general, err := parseEvent(strings.Fields(line))
		if err != nil {
			t.Fatalf("%q: fast path took it, general path rejects it: %v", line, err)
		}
		if fast != general {
			t.Fatalf("%q: fast path %+v, general path %+v", line, fast, general)
		}
	})
}
