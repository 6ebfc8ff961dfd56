package enginelog

import (
	"bytes"
	"slices"
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

// FuzzSplitFields checks the stack splitter behind text decoding against
// strings.Fields on arbitrary bytes: it takes exactly the ASCII lines of at
// most maxFields fields, and splits each of them identically.
func FuzzSplitFields(f *testing.F) {
	f.Add("S 0 2 /app")
	f.Add(" \tB 5\v9 gc\f/app/worker.0\r\n")
	f.Add("a b c d e f g h")
	f.Add("E 1 /app")
	f.Add("C 3 msgs\u0085 1.5")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		var buf [maxFields]string
		got, ok := splitFields(in, buf[:])
		want := strings.Fields(in)
		ascii := !strings.ContainsFunc(in, func(r rune) bool { return r >= utf8.RuneSelf })
		if ok != (ascii && len(want) <= maxFields) {
			t.Fatalf("%q (ascii %v, %d fields): splitter took it = %v", in, ascii, len(want), ok)
		}
		if ok && !slices.Equal(got, want) {
			t.Fatalf("%q: split into %q, strings.Fields %q", in, got, want)
		}
	})
}
