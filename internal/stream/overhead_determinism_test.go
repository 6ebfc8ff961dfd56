package stream_test

import (
	"bytes"
	"strings"
	"testing"

	"grade10/internal/enginelog"
	"grade10/internal/obs"
	"grade10/internal/report"
	"grade10/internal/stream"
	"grade10/internal/ui"
)

// TestDeterminismWithAccounting is the guard for the diagnostics' exemption
// boundary: with overhead accounting, self-tracing and a flush consumer all
// enabled, the analyzed-profile output must stay byte-identical to the batch
// reference at every parallelism. They observe the pipeline; nothing they
// measure may feed it.
func TestDeterminismWithAccounting(t *testing.T) {
	f := getFixture(t)

	run := func(parallelism int) string {
		t.Helper()
		account := &obs.RunAccount{}
		tracer := obs.NewTracer()
		e, err := stream.New(stream.Config{
			Models: f.models, RetainForFinal: true, WindowSlices: 16, MaxWindows: 4,
			ExpectedInstances: len(f.monitoring),
			Parallelism:       parallelism,
			Tracer:            tracer,
			Account:           account,
			OnWindowFlush:     ui.NewBroker(0).OnWindowFlush,
		})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(e, f)
		out, err := e.Finalize()
		if err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		var buf bytes.Buffer
		if err := report.WriteAll(&buf, out); err != nil {
			t.Fatal(err)
		}

		// The diagnostics must actually have observed the run — a guard that
		// passes because accounting silently no-oped guards nothing.
		snap := account.Snapshot()
		if snap.Windows == 0 || snap.WallSeconds <= 0 {
			t.Fatalf("account saw no compute sections: %+v", snap)
		}
		if snap.IngestBytes == 0 || snap.IngestItems == 0 {
			t.Fatalf("account saw no ingest: %+v", snap)
		}
		if len(e.Windows()) == 0 {
			t.Fatal("engine retained no windows")
		}
		if len(tracer.Spans()) == 0 {
			t.Fatal("tracer recorded no spans")
		}
		return buf.String()
	}

	p1 := run(1)
	p4 := run(4)
	if p1 != p4 {
		t.Fatal("analyzed output differs between parallelism 1 and 4 with accounting enabled")
	}
	if p1 != f.batchText {
		t.Fatal("analyzed output with accounting enabled differs from the batch reference")
	}
}

// TestIngestItemsCountEveryInput: the account counts one ingest item per log
// event and per monitoring row, and a malformed monitoring line still counts
// as one item.
func TestIngestItemsCountEveryInput(t *testing.T) {
	f := getFixture(t)
	log, _, _, err := enginelog.ReadStats(strings.NewReader(f.logText))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(log.Events))
	for _, m := range f.monitoring {
		want += int64(len(m.Samples.Samples))
	}
	account := &obs.RunAccount{}
	e, err := stream.New(stream.Config{Models: f.models, WindowSlices: 16, Account: account})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(e, f)
	if got := account.Snapshot().IngestItems; got != want {
		t.Errorf("chunks and lines: ingest_items = %d, want %d events + samples", got, want)
	}
	e.IngestMonitoringLine("not,a,monitoring,row\n")
	if got := account.Snapshot().IngestItems; got != want+1 {
		t.Errorf("after a malformed line: ingest_items = %d, want %d", got, want+1)
	}
}
