package enginelog

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzParseBinary feeds arbitrary bytes, mostly binary, through ReadStats:
// it must never panic, must never report an error (only count), must keep
// the ParseStats invariants the text parser keeps, and must be insensitive
// to chunk boundaries.
func FuzzParseBinary(f *testing.F) {
	seed := func(log *Log) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, log); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Log{}))
	f.Add(seed(randomLog(1, 20)))
	f.Add(seed(randomLog(2, 5))[:10]) // truncated mid-record
	f.Add([]byte("S 0 2 /app\nE 10 /app\n"))
	f.Add([]byte(Magic + "\x01\x7fgarbage"))
	f.Add([]byte(Magic + "\x63"))
	nan := []byte(Magic + "\x01\x04\x02\x00\x01x")
	nan = binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Fuzz(func(t *testing.T, in []byte) {
		log, stats, _, err := ReadStats(bytes.NewReader(in))
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
			t.Fatalf("skipped records but no FirstError: %+v", stats)
		}

		// Byte-at-a-time incremental decode must agree exactly with the
		// batch decode.
		var sp StreamParser
		var inc []Event
		emit := func(e Event) { inc = append(inc, e) }
		for i := range in {
			sp.Feed(in[i:i+1], emit)
		}
		sp.Finish(emit)
		if sp.Stats() != stats {
			t.Fatalf("incremental stats %+v != batch %+v", sp.Stats(), stats)
		}
		if len(inc) != len(log.Events) {
			t.Fatalf("incremental decoded %d events, batch %d", len(inc), len(log.Events))
		}
		for i := range inc {
			if inc[i] != log.Events[i] {
				t.Fatalf("incremental event %d: %+v != %+v", i, inc[i], log.Events[i])
			}
		}

		// Accepted events must round-trip: encode and decode again.
		var buf bytes.Buffer
		if werr := WriteBinary(&buf, log); werr != nil {
			t.Fatalf("re-encode of decoded events failed: %v", werr)
		}
		back, rerr := readClean(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected decoded events: %v", rerr)
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

// FuzzBinaryDifferential is the differential target: for arbitrary text
// input, parsing the text, converting the surviving events to binary, and
// decoding back must reproduce the identical event stream — and for clean
// text input the binary ParseStats must agree with the text ParseStats.
func FuzzBinaryDifferential(f *testing.F) {
	f.Add("S 0 2 /app\nE 10 /app\n")
	f.Add("B 5 9 gc /app/worker.0\nC 3 msgs 1.5\n")
	f.Add("# comment\n\nS zero 1 /app\n")
	f.Add("C 1 a 0.1\nC 2 a 1e300\nC 3 b -0\n")
	f.Add("B 10 5 gc /app\nX what\nS 0\n")
	f.Add(strings.Repeat("S 1 2 /app/w\n", 50))
	f.Fuzz(func(t *testing.T, in string) {
		textLog, textStats, _, err := ReadStats(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadStats: %v", err)
		}

		var bin bytes.Buffer
		if err := WriteBinary(&bin, textLog); err != nil {
			t.Fatalf("WriteBinary of text-parsed events failed: %v", err)
		}
		binLog, binStats, _, err := ReadStats(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("ReadStats: %v", err)
		}

		// The event streams must be identical, malformed text or not: the
		// converter carries exactly the events that survived text parsing.
		if len(binLog.Events) != len(textLog.Events) {
			t.Fatalf("binary decoded %d events, text parsed %d", len(binLog.Events), len(textLog.Events))
		}
		for i := range binLog.Events {
			if binLog.Events[i] != textLog.Events[i] {
				t.Fatalf("event %d: binary %+v != text %+v", i, binLog.Events[i], textLog.Events[i])
			}
		}
		if binStats.Events != textStats.Events {
			t.Fatalf("binary stats.Events %d != text %d", binStats.Events, textStats.Events)
		}
		if binStats.Degraded() {
			t.Fatalf("converted log decoded degraded: %+v", binStats)
		}
		// For clean text input (nothing skipped or truncated), the full
		// ParseStats must agree: same lines, same events, no errors.
		if !textStats.Degraded() && binStats != textStats {
			t.Fatalf("clean input: binary stats %+v != text stats %+v", binStats, textStats)
		}

		// Auto-detection must route both serializations to the same events.
		var text bytes.Buffer
		if err := Write(&text, textLog); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for _, data := range [][]byte{text.Bytes(), bin.Bytes()} {
			got, _, _, err := ReadStats(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadStats: %v", err)
			}
			if len(got.Events) != len(textLog.Events) {
				t.Fatalf("ReadStats decoded %d events, want %d", len(got.Events), len(textLog.Events))
			}
			for i := range got.Events {
				if got.Events[i] != textLog.Events[i] {
					t.Fatalf("ReadStats event %d mismatch", i)
				}
			}
		}
	})
}
