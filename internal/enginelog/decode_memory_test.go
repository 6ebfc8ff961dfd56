package enginelog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"grade10/internal/vtime"
)

// syntheticLog returns n events of every kind, each with its own strings, so
// a decoded event that aliased another log's or a reused buffer's bytes
// would not compare equal.
func syntheticLog(n int, tag string) *Log {
	log := &Log{Events: make([]Event, n)}
	for i := range log.Events {
		t := vtime.Time(10 * i)
		path := fmt.Sprintf("/%s/phase.%d", tag, i)
		switch i % 4 {
		case 0:
			log.Events[i] = Event{Kind: PhaseStart, Time: t, Path: path, Machine: i % 3}
		case 1:
			log.Events[i] = Event{Kind: PhaseEnd, Time: t, Path: path}
		case 2:
			log.Events[i] = Event{Kind: Blocked, Time: t, End: t + 5, Resource: tag + "-gc", Path: path}
		default:
			log.Events[i] = Event{Kind: Counter, Time: t, Name: tag + "-msgs", Value: float64(i) / 4}
		}
	}
	return log
}

// encodings returns the log in both on-disk formats.
func encodings(t testing.TB, log *Log) map[string][]byte {
	t.Helper()
	var text, bin bytes.Buffer
	if err := Write(&text, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, log); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()}
}

// appendDecode is the reference decode: one StreamParser over the whole
// input, appending every event to a plain slice.
func appendDecode(data []byte) ([]Event, ParseStats) {
	var sp StreamParser
	var events []Event
	emit := func(e Event) { events = append(events, e) }
	sp.Feed(data, emit)
	sp.Finish(emit)
	return events, sp.Stats()
}

// checkReadStats decodes data with ReadStats and compares it with the
// reference decode: the same events and stats, in a slice of exact size.
func checkReadStats(t *testing.T, data []byte) *Log {
	t.Helper()
	log, stats, _, err := ReadStats(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := appendDecode(data)
	if len(log.Events) != len(want) || (len(want) > 0 && !reflect.DeepEqual(log.Events, want)) {
		t.Fatalf("ReadStats decoded %d events, reference %d (or they differ)", len(log.Events), len(want))
	}
	if stats != wantStats {
		t.Fatalf("stats = %+v, reference %+v", stats, wantStats)
	}
	if cap(log.Events) != len(log.Events) {
		t.Fatalf("cap(Events) = %d, len %d: want an exact-size slice", cap(log.Events), len(log.Events))
	}
	return log
}

// TestReadStatsBlockBoundaries decodes logs of sizes around the pooled block
// length in both formats, and a degraded text log, against the reference.
func TestReadStatsBlockBoundaries(t *testing.T) {
	const b = eventBlockLen
	for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 5} {
		for format, data := range encodings(t, syntheticLog(n, "run")) {
			t.Run(fmt.Sprintf("%s/n=%d", format, n), func(t *testing.T) {
				if log := checkReadStats(t, data); len(log.Events) != n {
					t.Fatalf("%d events, want %d", len(log.Events), n)
				}
			})
		}
	}
	t.Run("text/degraded", func(t *testing.T) {
		var text bytes.Buffer
		for i, line := range strings.SplitAfter(string(encodings(t, syntheticLog(b+1, "run"))["text"]), "\n") {
			text.WriteString(line)
			if i%97 == 0 {
				text.WriteString("S notatime 1 /bad\n")
			}
		}
		text.WriteString("E 7") // unterminated final line
		_, stats, _, _ := ReadStats(bytes.NewReader(text.Bytes()))
		if !stats.Degraded() {
			t.Fatalf("degraded log decoded clean: %+v", stats)
		}
		checkReadStats(t, text.Bytes())
	})
}

// TestReadStatsPoolIsolation checks that pooled decode blocks never leak
// between logs: two logs decoded one after the other share no backing array,
// the first is intact after the second, a pooled block holds no event, and
// concurrent decodes (run under -race) each get their own events.
func TestReadStatsPoolIsolation(t *testing.T) {
	const n = 2*eventBlockLen + 3
	first := encodings(t, syntheticLog(n, "first"))["text"]
	second := encodings(t, syntheticLog(n, "second"))["binary"]
	a := checkReadStats(t, first)
	b := checkReadStats(t, second)
	span := func(l *Log) (lo, hi uintptr) {
		return uintptr(unsafe.Pointer(&l.Events[0])), uintptr(unsafe.Pointer(&l.Events[len(l.Events)-1]))
	}
	aLo, aHi := span(a)
	bLo, bHi := span(b)
	if bLo <= aHi && aLo <= bHi {
		t.Fatal("two decoded logs share a backing array")
	}
	if want, _ := appendDecode(first); !reflect.DeepEqual(a.Events, want) {
		t.Fatal("first log changed after a second decode")
	}
	block := eventBlocks.Get().(*eventBlock)
	if *block != (eventBlock{}) {
		t.Fatal("a decode block went back to the pool holding events")
	}
	eventBlocks.Put(block)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tag := fmt.Sprintf("g%d", g)
		data := encodings(t, syntheticLog(eventBlockLen+g*37, tag))[[]string{"text", "binary"}[g%2]]
		want, wantStats := appendDecode(data)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				log, stats, _, err := ReadStats(bytes.NewReader(data))
				if err != nil || stats != wantStats || !reflect.DeepEqual(log.Events, want) {
					t.Errorf("%s: concurrent decode differs from the reference (err %v)", tag, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// scribbleFeed feeds data to feed in chunks of size bytes through one
// buffer, overwriting the chunk with garbage as soon as feed returns, as a
// pooled read buffer is overwritten by its next read.
func scribbleFeed(data []byte, size int, feed func([]byte)) {
	buf := make([]byte, size)
	for off := 0; off < len(data); off += size {
		chunk := buf[:copy(buf, data[off:])]
		feed(chunk)
		for i := range chunk {
			chunk[i] = 0xA5
		}
	}
}

// TestChunkConsumersCopy pins the invariant the pooled read buffer relies
// on: no consumer (StreamParser, a binary Decoder fed directly, LineSplitter)
// keeps a chunk past its Feed. Each input is fed at several
// chunk sizes, every chunk scribbled over once its Feed returns, and the
// result must equal an unscribbled decode.
func TestChunkConsumersCopy(t *testing.T) {
	log := syntheticLog(3*eventBlockLen+5, "chunk")
	inputs := encodings(t, log)
	inputs["text/degraded"] = append([]byte("garbage\n"+strings.Repeat("x", 40)+"\n"), inputs["text"]...)
	for name, data := range inputs {
		want, wantStats := appendDecode(data)
		var wantLines []string
		var whole LineSplitter
		collect := func(dst *[]string) func([]byte) {
			return func(line []byte) { *dst = append(*dst, string(line)) }
		}
		whole.Feed(data, collect(&wantLines))
		whole.Finish(collect(&wantLines))
		for _, size := range []int{1, 7, 4096, len(data)} {
			t.Run(fmt.Sprintf("%s/chunk=%d", name, size), func(t *testing.T) {
				var sp StreamParser
				var got []Event
				emit := func(e Event) { got = append(got, e) }
				scribbleFeed(data, size, func(c []byte) { sp.Feed(c, emit) })
				sp.Finish(emit)
				if !reflect.DeepEqual(got, want) || sp.Stats() != wantStats {
					t.Fatalf("StreamParser: %d events, stats %+v; want %d, %+v", len(got), sp.Stats(), len(want), wantStats)
				}
				if name == "binary" {
					var dec Decoder
					var direct []Event
					scribbleFeed(data, size, func(c []byte) { dec.Feed(c, func(e Event) { direct = append(direct, e) }) })
					dec.Finish()
					if !reflect.DeepEqual(direct, want) || dec.Stats() != wantStats {
						t.Fatalf("Decoder: %d events, stats %+v; want %d, %+v", len(direct), dec.Stats(), len(want), wantStats)
					}
				}
				var ls LineSplitter
				var lines []string
				scribbleFeed(data, size, func(c []byte) { ls.Feed(c, collect(&lines)) })
				ls.Finish(collect(&lines))
				if !reflect.DeepEqual(lines, wantLines) {
					t.Fatalf("LineSplitter: %d lines, want %d (or they differ)", len(lines), len(wantLines))
				}
			})
		}
	}
}
