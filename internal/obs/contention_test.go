package obs

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestTracerWraparoundOrderingConcurrent: many goroutines emit spans through
// the default-capacity ring until it wraps. The snapshot taken afterwards must be in strictly increasing
// completion (Seq) order with the newest span retained, and the drop counter
// must account for everything the ring shed — the flight recorder's Perfetto
// export relies on that ordering.
func TestTracerWraparoundOrderingConcurrent(t *testing.T) {
	tr := NewTracer()

	const workers, perWorker = 8, DefaultMaxSpans/8 + 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := tr.StartSpan("wrap", w)
				s.SetItems(int64(i))
				s.End()
			}
		}(w)
	}
	wg.Wait()

	spans := tr.Spans()
	if len(spans) == 0 || len(spans) > DefaultMaxSpans {
		t.Fatalf("ring retained %d spans, want 1..%d", len(spans), DefaultMaxSpans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatalf("spans out of order at %d: seq %d after %d",
				i, spans[i].Seq, spans[i-1].Seq)
		}
	}
	total := uint64(workers * perWorker)
	if last := spans[len(spans)-1].Seq; last != total {
		t.Errorf("newest span seq = %d, want %d", last, total)
	}
	if got := tr.Dropped() + uint64(len(spans)); got != total {
		t.Errorf("dropped(%d) + retained(%d) = %d, want %d",
			tr.Dropped(), len(spans), got, total)
	}
}

// TestTracerConcurrentEmitAndScrape: span emission races snapshotting — the
// live /debug/flamegraph and bundle-capture paths read Spans() while engines
// keep tracing. Run under -race; every snapshot must be internally ordered.
// The ring starts full, so every span emitted while the scrapes run wraps it.
func TestTracerConcurrentEmitAndScrape(t *testing.T) {
	tr := NewTracer()
	tr.OnRecord(func(SpanRecord) {}) // exercise the hook path too
	for i := 0; i < DefaultMaxSpans; i++ {
		s := tr.StartSpan("fill", 0)
		s.End()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := tr.StartSpan("emit", w)
				s.SetDetail("d")
				s.End()
			}
		}(w)
	}
	// Scrape until an emitter has wrapped the ring at least once.
	for i := 0; i < 200 || tr.Dropped() == 0; i++ {
		spans := tr.Spans()
		for j := 1; j < len(spans); j++ {
			if spans[j].Seq <= spans[j-1].Seq {
				t.Errorf("snapshot %d out of order at %d", i, j)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRegistryScrapeDuringLabelCreation: WriteText races vec label creation
// (the overhead gauges mint one label set per fleet run while Prometheus
// scrapes). Run under -race; every scrape must render and parse cleanly.
func TestRegistryScrapeDuringLabelCreation(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("grade10_test_ops_total", "ops", "run")
	gv := reg.GaugeVec("grade10_test_depth", "depth", "run")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			run := fmt.Sprintf("run-%03d", i%50)
			cv.With(run).Inc()
			gv.With(run).Set(float64(i))
		}
	}()
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !strings.Contains(line, " ") {
				t.Fatalf("scrape %d: malformed sample line %q", i, line)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestLogRingBudgetEvictsOldest: past the byte budget the ring sheds oldest
// records first, counts them, and keeps Seq monotone so consumers can see
// the gap.
func TestLogRingBudgetEvictsOldest(t *testing.T) {
	ring := &LogRing{max: 2 << 10}
	logger, err := NewLoggerWithRing(io.Discard, "t", "text", "info", ring)
	if err != nil {
		t.Fatal(err)
	}
	msg := strings.Repeat("x", 100)
	const n = 200
	for i := 0; i < n; i++ {
		logger.Info(msg, "i", i)
	}
	if ring.Dropped() == 0 {
		t.Fatal("expected the byte budget to evict records")
	}
	if ring.Bytes() > 2<<10 {
		t.Fatalf("retained %d bytes past the %d budget", ring.Bytes(), 2<<10)
	}
	recs := ring.Records(slog.LevelDebug, 0)
	if len(recs) == 0 {
		t.Fatal("ring empty after writes")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("retained records not contiguous: seq %d after %d",
				recs[i].Seq, recs[i-1].Seq)
		}
	}
	if last := recs[len(recs)-1]; last.Seq != n {
		t.Errorf("newest record seq = %d, want %d", last.Seq, n)
	}
	if uint64(len(recs))+ring.Dropped() != n {
		t.Errorf("retained(%d) + dropped(%d) != appended(%d)",
			len(recs), ring.Dropped(), n)
	}
}

// TestLogRingCapturesBelowConsoleLevel: the ring keeps debug records the
// console handler suppresses — that extra detail is the point of teeing.
func TestLogRingCapturesBelowConsoleLevel(t *testing.T) {
	ring := NewLogRing()
	var console bytes.Buffer
	logger, err := NewLoggerWithRing(&console, "t", "text", "warn", ring)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("quiet detail", "k", "v")
	logger.Warn("loud problem")

	if s := console.String(); strings.Contains(s, "quiet detail") {
		t.Fatalf("debug leaked to console at level warn:\n%s", s)
	} else if !strings.Contains(s, "loud problem") {
		t.Fatalf("warn missing from console:\n%s", s)
	}
	all := ring.Records(slog.LevelDebug, 0)
	if len(all) != 2 || all[0].Msg != "quiet detail" || all[1].Msg != "loud problem" {
		t.Fatalf("ring records = %+v, want both", all)
	}
	if all[0].Attrs["k"] != "v" {
		t.Fatalf("attrs not captured: %+v", all[0].Attrs)
	}
	// Level filter and limit shape the /logs endpoint's responses.
	if warns := ring.Records(slog.LevelWarn, 0); len(warns) != 1 || warns[0].Msg != "loud problem" {
		t.Fatalf("level filter returned %+v", warns)
	}
	if one := ring.Records(slog.LevelDebug, 1); len(one) != 1 || one[0].Msg != "loud problem" {
		t.Fatalf("limit should keep the newest record, got %+v", one)
	}
}

// TestLogRingConcurrent: appends race reads under -race (the /logs endpoint
// serves while every goroutine keeps logging).
func TestLogRingConcurrent(t *testing.T) {
	ring := &LogRing{max: 8 << 10}
	logger, err := NewLoggerWithRing(io.Discard, "t", "text", "info", ring)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				logger.Info("concurrent", "worker", w, "i", i)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		recs := ring.Records(slog.LevelInfo, 50)
		for j := 1; j < len(recs); j++ {
			if recs[j].Seq <= recs[j-1].Seq {
				t.Errorf("read %d out of order at %d", i, j)
			}
		}
		_, _, _ = ring.Bytes(), ring.Len(), ring.Dropped()
	}
	close(stop)
	wg.Wait()
}
