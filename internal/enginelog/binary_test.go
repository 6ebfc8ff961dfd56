package enginelog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"grade10/internal/vtime"
)

func randomLog(seed int64, n int) *Log {
	rng := rand.New(rand.NewSource(seed))
	log := &Log{}
	ts := vtime.Time(0)
	for i := 0; i < n; i++ {
		ts = ts.Add(vtime.Duration(rng.Intn(1000)) * vtime.Microsecond)
		path := fmt.Sprintf("/job/phase.%d/worker.%d", rng.Intn(5), rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			log.Events = append(log.Events, Event{
				Kind: PhaseStart, Time: ts, Path: path, Machine: rng.Intn(8) - 1})
		case 1:
			log.Events = append(log.Events, Event{Kind: PhaseEnd, Time: ts, Path: path})
		case 2:
			log.Events = append(log.Events, Event{
				Kind: Blocked, Time: ts,
				End:      ts.Add(vtime.Duration(rng.Intn(1000)) * vtime.Microsecond),
				Path:     path,
				Resource: []string{"gc", "msgqueue", "barrier"}[rng.Intn(3)]})
		default:
			log.Events = append(log.Events, Event{
				Kind: Counter, Time: ts,
				Name:  fmt.Sprintf("counter-%d", rng.Intn(3)),
				Value: float64(rng.Intn(1000)) / 4})
		}
	}
	return log
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Property: random well-formed logs round-trip through the binary encoding
// exactly, and re-encoding the decoded log reproduces identical bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		log := randomLog(seed, 40)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, log); err != nil {
			return false
		}
		back, err := readClean(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(back.Events) != len(log.Events) {
			return false
		}
		for i := range back.Events {
			if back.Events[i] != log.Events[i] {
				return false
			}
		}
		var again bytes.Buffer
		if err := WriteBinary(&again, back); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), again.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Text → binary → text must be byte-identical for canonical logs, the
// converter's contract.
func TestBinaryTextRoundTripByteIdentical(t *testing.T) {
	log := randomLog(7, 100)
	var text bytes.Buffer
	if err := Write(&text, log); err != nil {
		t.Fatal(err)
	}
	parsed, err := readClean(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, parsed); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
	decoded, err := readClean(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := Write(&back, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), text.Bytes()) {
		t.Fatalf("text round trip through binary not byte-identical:\n got %q\nwant %q",
			back.Bytes(), text.Bytes())
	}
}

// The incremental decoder must produce identical events and stats whatever
// the chunking, including one byte at a time (worst-case tail following).
func TestBinaryDecoderChunking(t *testing.T) {
	log := randomLog(11, 60)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 3, 7, 64, bin.Len()} {
		var d Decoder
		var got []Event
		data := bin.Bytes()
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			d.Feed(data[off:end], func(e Event) { got = append(got, e) })
		}
		d.Finish()
		eventsEqual(t, got, log.Events)
		st := d.Stats()
		if st.Events != len(log.Events) || st.Skipped != 0 || st.Truncated != 0 {
			t.Fatalf("chunk %d: unexpected stats %+v", chunk, st)
		}
	}
}

func TestBinaryEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Log{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerLen {
		t.Fatalf("empty log is %d bytes, want %d (header only)", buf.Len(), headerLen)
	}
	if DetectFormat(buf.Bytes()) != FormatBinary {
		t.Fatal("empty binary log not detected as binary")
	}
	log, err := readClean(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 0 {
		t.Fatalf("decoded %d events from empty log", len(log.Events))
	}
}

func TestDetectFormat(t *testing.T) {
	if DetectFormat([]byte("S 0 1 /app\n")) != FormatText {
		t.Error("text log misdetected")
	}
	if DetectFormat([]byte(Magic)) != FormatBinary {
		t.Error("binary magic misdetected")
	}
	if DetectFormat([]byte("G10")) != FormatText {
		t.Error("short prefix should default to text")
	}
	if DetectFormat(nil) != FormatText {
		t.Error("empty prefix should default to text")
	}
}

func TestBinaryCorruption(t *testing.T) {
	log := randomLog(3, 20)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}

	t.Run("unknown tag", func(t *testing.T) {
		data := append([]byte(nil), bin.Bytes()...)
		data = append(data, 0x7f) // bogus record tag after valid records
		got, stats, _, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		eventsEqual(t, got.Events, log.Events)
		if stats.Skipped != 1 || stats.FirstError == "" {
			t.Fatalf("want 1 skipped with error, got %+v", stats)
		}
		if stats.Events+stats.Skipped != stats.Lines {
			t.Fatalf("stats inconsistent: %+v", stats)
		}
		if _, err := readClean(bytes.NewReader(data)); err == nil {
			t.Fatal("strict reader accepted corrupt log")
		}
	})

	t.Run("truncated tail", func(t *testing.T) {
		data := bin.Bytes()[:bin.Len()-2]
		got, stats, _, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(log.Events)-1 {
			t.Fatalf("got %d events, want %d", len(got.Events), len(log.Events)-1)
		}
		if stats.Truncated != 1 || stats.Skipped != 1 {
			t.Fatalf("want truncated tail counted, got %+v", stats)
		}
	})

	t.Run("bad version", func(t *testing.T) {
		data := append([]byte(nil), bin.Bytes()...)
		data[len(Magic)] = 99
		_, stats, _, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Events != 0 || stats.Skipped != 1 ||
			!strings.Contains(stats.FirstError, "version") {
			t.Fatalf("want version error, got %+v", stats)
		}
	})

	t.Run("bad string ref", func(t *testing.T) {
		data := []byte(Magic)
		data = append(data, BinaryVersion, tagEnd)
		data = binary.AppendVarint(data, 0) // Δtime
		data = binary.AppendUvarint(data, 42)
		_, stats, _, err := ReadStats(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Skipped != 1 || !strings.Contains(stats.FirstError, "intern table") {
			t.Fatalf("want intern-table error, got %+v", stats)
		}
	})
}

// A NaN counter is structurally valid but semantically skipped, mirroring
// the text parser; decoding continues past it.
func TestBinaryNaNCounterSkipped(t *testing.T) {
	data := []byte(Magic)
	data = append(data, BinaryVersion, tagCounter)
	data = binary.AppendVarint(data, 5)  // Δtime
	data = binary.AppendUvarint(data, 0) // define string
	data = binary.AppendUvarint(data, 1)
	data = append(data, 'x')
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(math.NaN()))
	// Followed by a good counter reusing the interned name.
	data = append(data, tagCounter)
	data = binary.AppendVarint(data, 1)
	data = binary.AppendUvarint(data, 1) // ref table[0] = "x"
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(2.5))

	got, stats, _, err := ReadStats(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := Event{Kind: Counter, Time: 6, Name: "x", Value: 2.5}
	eventsEqual(t, got.Events, []Event{want})
	if stats.Lines != 2 || stats.Events != 1 || stats.Skipped != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if !strings.Contains(stats.FirstError, "NaN") {
		t.Fatalf("FirstError %q", stats.FirstError)
	}
}

func TestEncoderRejectsUnrepresentable(t *testing.T) {
	enc := NewEncoder(&bytes.Buffer{})
	if err := enc.Encode(Event{Kind: Counter, Name: "x", Value: math.NaN()}); err == nil {
		t.Error("NaN counter accepted")
	}
	if err := enc.Encode(Event{Kind: Blocked, Time: 10, End: 5, Path: "/a", Resource: "gc"}); err == nil {
		t.Error("inverted blocking interval accepted")
	}
	if err := enc.Encode(Event{Kind: Kind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReadStatsAny(t *testing.T) {
	log := randomLog(5, 30)
	var text, bin bytes.Buffer
	if err := Write(&text, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want Format
	}{
		{"text", text.Bytes(), FormatText},
		{"binary", bin.Bytes(), FormatBinary},
	} {
		got, stats, format, err := ReadStats(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if format != tc.want {
			t.Fatalf("%s: detected %v", tc.name, format)
		}
		eventsEqual(t, got.Events, log.Events)
		if stats.Events != len(log.Events) || stats.Degraded() {
			t.Fatalf("%s: stats %+v", tc.name, stats)
		}
	}
	// Tiny text input, shorter than the magic.
	got, _, format, err := ReadStats(strings.NewReader("# c"))
	if err != nil || format != FormatText || len(got.Events) != 0 {
		t.Fatalf("tiny input: %v %v %d", err, format, len(got.Events))
	}
}

// StreamParser must behave identically to the batch readers on both
// formats, for any chunking.
func TestStreamParserBothFormats(t *testing.T) {
	log := randomLog(13, 80)
	var text, bin bytes.Buffer
	if err := Write(&text, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want Format
	}{
		{"text", text.Bytes(), FormatText},
		{"binary", bin.Bytes(), FormatBinary},
	} {
		for _, chunk := range []int{1, 5, 4096} {
			var sp StreamParser
			var got []Event
			for off := 0; off < len(tc.data); off += chunk {
				end := off + chunk
				if end > len(tc.data) {
					end = len(tc.data)
				}
				sp.Feed(tc.data[off:end], func(e Event) { got = append(got, e) })
			}
			sp.Finish(func(e Event) { got = append(got, e) })
			if sp.Format() != tc.want {
				t.Fatalf("%s/%d: format %v", tc.name, chunk, sp.Format())
			}
			eventsEqual(t, got, log.Events)
			st := sp.Stats()
			if st.Events != len(log.Events) || st.Degraded() {
				t.Fatalf("%s/%d: stats %+v", tc.name, chunk, st)
			}
		}
	}
}

// Text fed before the format is decided (fewer than len(Magic) bytes per
// chunk) is held, then parsed as text with per-line counting once enough
// bytes arrive to rule out the binary magic.
func TestStreamParserParseLine(t *testing.T) {
	var sp StreamParser
	var got []Event
	in := "S 5 2 /app\n# comment\nX garbage\n"
	for i := 0; i < len(in); i += 3 {
		sp.Feed([]byte(in[i:min(i+3, len(in))]), func(e Event) { got = append(got, e) })
	}
	sp.Finish(nil)
	want := []Event{{Kind: PhaseStart, Time: 5, Machine: 2, Path: "/app"}}
	eventsEqual(t, got, want)
	st := sp.Stats()
	if st.Lines != 2 || st.Events != 1 || st.Skipped != 1 {
		t.Fatalf("stats %+v", st)
	}
	if sp.Format() != FormatText {
		t.Fatal("short chunks were not decided as text")
	}
}

// A text stream cut mid-line must still deliver the final unterminated line
// at Finish, as ReadStats does at end of input.
func TestStreamParserTextPartialTail(t *testing.T) {
	var sp StreamParser
	var got []Event
	emit := func(e Event) { got = append(got, e) }
	sp.Feed([]byte("S 1 0 /a\nE 2 /"), emit)
	sp.Feed([]byte("a"), emit)
	sp.Finish(emit)
	want := []Event{
		{Kind: PhaseStart, Time: 1, Machine: 0, Path: "/a"},
		{Kind: PhaseEnd, Time: 2, Path: "/a"},
	}
	eventsEqual(t, got, want)
}

// Interning: repeated strings must be referenced, not re-encoded, so the
// binary form of a repetitive log is much smaller than the text form.
func TestBinaryInterning(t *testing.T) {
	log := &Log{}
	for i := 0; i < 1000; i++ {
		log.Events = append(log.Events,
			Event{Kind: Blocked, Time: vtime.Time(i * 100), End: vtime.Time(i*100 + 50),
				Path: "/job/superstep.1/worker.2/compute/thread.3", Resource: "gc"})
	}
	var text, bin bytes.Buffer
	if err := Write(&text, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*4 > text.Len() {
		t.Fatalf("interning ineffective: binary %d bytes vs text %d", bin.Len(), text.Len())
	}
	back, err := readClean(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, back.Events, log.Events)
}
