package stream_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// fixture is one finished giraphsim run with its serialized inputs and the
// batch reference output, shared across the streaming tests. run is the run
// as cmd/runsim would save it, with the metadata its run.json carries.
type fixture struct {
	run        *rundir.Run
	models     grade10.Models
	logText    string
	monText    string
	monitoring []cluster.ResourceSamples
	batch      *grade10.Output
	batchText  string
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ds := workload.Dataset{Name: "stream-test",
			Gen: func() *graph.Graph { return graph.RMAT(11, 8, 7) }}
		cfg := giraphsim.DefaultConfig()
		cfg.Workers = 4
		run, err := workload.RunGiraph(workload.Spec{Dataset: ds, Algorithm: "pagerank"}, cfg)
		if err != nil {
			fixErr = err
			return
		}
		monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start,
			run.Result.End, 10*vtime.Millisecond)
		if err != nil {
			fixErr = err
			return
		}
		batch, err := grade10.Characterize(grade10.Input{
			Log: run.Result.Log, Monitoring: monitoring, Models: run.Models,
		})
		if err != nil {
			fixErr = err
			return
		}
		var logBuf, monBuf, repBuf bytes.Buffer
		if err := enginelog.Write(&logBuf, run.Result.Log); err != nil {
			fixErr = err
			return
		}
		if err := rundir.WriteMonitoring(&monBuf, monitoring); err != nil {
			fixErr = err
			return
		}
		if err := report.WriteAll(&repBuf, batch); err != nil {
			fixErr = err
			return
		}
		mc := run.Config.Machine
		fix = &fixture{
			run: &rundir.Run{
				Log: run.Result.Log, Monitoring: monitoring,
				Info: rundir.Info{
					Engine: "giraph", Job: "pagerank", Workers: run.Config.Workers,
					ThreadsPerWorker: run.Config.ThreadsPerWorker, Cores: mc.Cores,
					NetBandwidth: mc.NetBandwidth, DiskBandwidth: mc.DiskBandwidth,
					StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End),
				},
			},
			models:     run.Models,
			logText:    logBuf.String(),
			monText:    monBuf.String(),
			monitoring: monitoring,
			batch:      batch,
			batchText:  repBuf.String(),
		}
	})
	if fixErr != nil {
		t.Fatalf("building fixture: %v", fixErr)
	}
	return fix
}

// ingestLine feeds one text log line, terminated, through the chunk path.
func ingestLine(e *stream.Engine, line string) {
	e.IngestChunk([]byte(line + "\n"))
}

func feedAll(e *stream.Engine, f *fixture) {
	for _, line := range strings.Split(f.logText, "\n") {
		ingestLine(e, line)
	}
	e.LogDone()
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()
}

// TestStreamBatchEquivalence is the correctness anchor of the online path:
// feeding the serialized log and monitoring line-by-line through the stream
// engine and finalizing must reproduce the batch report byte for byte.
func TestStreamBatchEquivalence(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{
		Models: f.models, RetainForFinal: true, WindowSlices: 16, MaxWindows: 4,
		ExpectedInstances: len(f.monitoring),
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
	if buf.String() != f.batchText {
		t.Fatalf("streamed report differs from batch report\n--- batch ---\n%s\n--- stream ---\n%s",
			head(f.batchText, 40), head(buf.String(), 40))
	}

	st := e.Stats()
	if st.ParseErrors != 0 || st.InvalidEvents != 0 {
		t.Fatalf("clean input produced errors: %+v", st)
	}
	// Windows must tile exactly the trace span (final one clipped).
	windowDur := 16 * grade10.DefaultTimeslice
	span := f.batch.Trace.End.Sub(f.batch.Trace.Start)
	want := int64((span + windowDur - 1) / windowDur)
	if st.WindowsFlushed != want {
		t.Fatalf("flushed %d windows, want %d for span %v", st.WindowsFlushed, want, span)
	}
	// Finalize is idempotent.
	out2, err := e.Finalize()
	if err != nil || out2 != out {
		t.Fatalf("Finalize not idempotent: %v %p %p", err, out, out2)
	}
}

// TestStreamWindowedTotals checks the live windowed aggregates against the
// batch profile: total consumption and attribution must agree closely (the
// windows tile the run; only grid tail effects differ).
func TestStreamWindowedTotals(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, WindowSlices: 8,
		ExpectedInstances: len(f.monitoring)})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(e, f)
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if len(snap.Instances) != len(f.batch.Profile.Instances) {
		t.Fatalf("instance count: stream %d, batch %d",
			len(snap.Instances), len(f.batch.Profile.Instances))
	}
	var batchConsumed, batchAttributed, streamConsumed, streamAttributed float64
	for _, ip := range f.batch.Profile.Instances {
		c, a, _ := ip.Totals(f.batch.Slices)
		batchConsumed += c
		batchAttributed += a
	}
	for _, is := range snap.Instances {
		streamConsumed += is.ConsumedUnitSeconds
		streamAttributed += is.AttributedUnitSeconds
	}
	if relDiff(streamConsumed, batchConsumed) > 0.05 {
		t.Fatalf("consumed diverged: stream %.3f batch %.3f", streamConsumed, batchConsumed)
	}
	if relDiff(streamAttributed, batchAttributed) > 0.05 {
		t.Fatalf("attributed diverged: stream %.3f batch %.3f", streamAttributed, batchAttributed)
	}
	if snap.Coverage <= 0.5 || snap.Coverage > 1.5 {
		t.Fatalf("implausible live coverage %.3f", snap.Coverage)
	}
	if len(snap.Bottlenecks) == 0 {
		t.Fatal("expected live bottleneck aggregates")
	}
	if len(snap.Windows) > 32 {
		t.Fatalf("window ring exceeded default bound: %d", len(snap.Windows))
	}
}

// TestStreamBoundedMemory verifies that in bounded mode the engine retains
// window state, not the trace: a pruned phase tree and trimmed sample
// buffers throughout ingest.
func TestStreamBoundedMemory(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, MaxWindows: 4,
		Timeslice: vtime.Millisecond, WindowSlices: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Monitoring first: the monitoring watermark then covers the whole run,
	// so windows flush continuously as the log feed advances.
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()

	lines := strings.Split(f.logText, "\n")
	totalStarts := strings.Count(f.logText, "\nS ") + 1
	maxTree, maxPending := 0, 0
	for i, line := range lines {
		ingestLine(e, line)
		if i%512 == 0 {
			m := e.Mem()
			if m.TreePhases > maxTree {
				maxTree = m.TreePhases
			}
			if m.PendingLeaves > maxPending {
				maxPending = m.PendingLeaves
			}
		}
	}
	e.LogDone()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if maxTree == 0 {
		t.Fatal("memory probe never ran")
	}
	if maxTree >= totalStarts/2 {
		t.Fatalf("live tree grew with the trace: max %d phases of %d started", maxTree, totalStarts)
	}
	m := e.Mem()
	if m.OpenPhases != 0 {
		t.Fatalf("%d phases still open after Finalize", m.OpenPhases)
	}
	if m.Windows > 4 {
		t.Fatalf("window ring over bound: %d", m.Windows)
	}
	st := e.Stats()
	if st.WindowsFlushed < 4 {
		t.Fatalf("expected continuous window flushing, got %d", st.WindowsFlushed)
	}
}

// TestStreamMalformedInput mixes garbage into the feeds: the engine must
// count and skip, never fail, and still finalize.
func TestStreamMalformedInput(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, RetainForFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(f.logText, "\n")
	for i, line := range lines {
		ingestLine(e, line)
		if i%100 == 0 {
			ingestLine(e, "garbage line "+line)
			ingestLine(e, "E 12 /no/such/phase")
			ingestLine(e, "S not-a-number 0 /x")
		}
	}
	e.LogDone()
	for i, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
		if i%100 == 0 {
			e.IngestMonitoringLine("1,cpu,8,bogus,10,0.5")
			e.IngestMonitoringLine("0,warp-drive,1,0,10,0.5")
			e.IngestMonitoringLine("0,cpu,8,0,10,NaN")
		}
	}
	e.MonitoringDone()
	out, err := e.Finalize()
	if err != nil {
		t.Fatalf("Finalize with garbage interleaved: %v", err)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	if buf.String() != f.batchText {
		t.Fatal("garbage lines leaked into the final report")
	}
	st := e.Stats()
	if st.ParseErrors == 0 {
		t.Fatal("malformed log lines not counted")
	}
	if st.InvalidEvents == 0 {
		t.Fatal("invalid events not counted")
	}
	if st.InvalidSamples == 0 {
		t.Fatal("malformed monitoring lines not counted")
	}
	if st.IgnoredSamples == 0 {
		t.Fatal("unmodeled resource samples not counted")
	}
}

// TestStreamTruncatedLog cuts the log mid-run: Finalize must force-close the
// surviving phases and still produce a profile.
func TestStreamTruncatedLog(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, RetainForFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(f.logText, "\n")
	for _, line := range lines[:len(lines)/2] {
		ingestLine(e, line)
	}
	e.LogDone()
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()
	out, err := e.Finalize()
	if err != nil {
		t.Fatalf("Finalize on truncated log: %v", err)
	}
	if out == nil || out.Profile == nil {
		t.Fatal("no profile from truncated log")
	}
	if e.Stats().ForcedClosures == 0 {
		t.Fatal("expected force-closed phases on a truncated log")
	}
}

// TestStreamEventsAfterFinalize: the finalized trace is the engine's own
// tree, so events arriving after Finalize are counted as late and dropped —
// the report does not change and no phase reopens.
func TestStreamEventsAfterFinalize(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, RetainForFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(e, f)
	out, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	log, _, _, err := enginelog.ReadStats(strings.NewReader(f.logText))
	if err != nil {
		t.Fatal(err)
	}
	late := log.Events[:10]
	for _, ev := range late {
		e.IngestEvent(ev)
	}
	e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: out.Trace.End, Path: "/late", Machine: -1})

	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	if buf.String() != f.batchText {
		t.Fatal("events after Finalize changed the final report")
	}
	st := e.Stats()
	if got := st.LateEvents - before.LateEvents; got != int64(len(late)+1) {
		t.Fatalf("LateEvents grew by %d, want %d", got, len(late)+1)
	}
	if st.Events != before.Events || st.InvalidEvents != before.InvalidEvents {
		t.Fatalf("late events were applied: before %+v after %+v", before, st)
	}
	if m := e.Mem(); m.OpenPhases != 0 {
		t.Fatalf("%d phases open after late events", m.OpenPhases)
	}
	if ops := e.Snapshot().OpenPhases; len(ops) != 0 {
		t.Fatalf("snapshot lists open phases after late events: %+v", ops)
	}
}

// TestTapDelivery pushes the event stream through a bounded tap from a
// producer goroutine, as the in-process runsim tee does.
func TestTapDelivery(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models, RetainForFinal: true, WindowSlices: 16})
	if err != nil {
		t.Fatal(err)
	}
	log, stats, _, err := enginelog.ReadStats(strings.NewReader(f.logText))
	if err != nil || stats.Degraded() {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	tap := stream.NewTap(e)
	done := make(chan struct{})
	go func() {
		defer close(done)
		feed := tap.Func()
		for _, ev := range log.Events {
			feed(ev)
		}
	}()
	<-done
	tap.Close()
	tap.Close() // idempotent
	e.LogDone()
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()
	out, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	if buf.String() != f.batchText {
		t.Fatal("tapped stream diverged from batch report")
	}
	if int(e.Stats().Events) != len(log.Events) {
		t.Fatalf("tap delivered %d of %d events", e.Stats().Events, len(log.Events))
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestStreamBinaryIngestEquivalence feeds the identical run as binary chunks
// through IngestChunk (the mixed-format path serve and fleet use) and as
// text lines; both must reproduce the batch report byte for byte.
func TestStreamBinaryIngestEquivalence(t *testing.T) {
	f := getFixture(t)
	textLog, stats, _, err := enginelog.ReadStats(strings.NewReader(f.logText))
	if err != nil || stats.Degraded() {
		t.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	var bin bytes.Buffer
	if err := enginelog.WriteBinary(&bin, textLog); err != nil {
		t.Fatal(err)
	}

	render := func(feed func(e *stream.Engine)) string {
		t.Helper()
		e, err := stream.New(stream.Config{
			Models: f.models, RetainForFinal: true, WindowSlices: 16, MaxWindows: 4,
			ExpectedInstances: len(f.monitoring),
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(e)
		e.LogDone()
		for _, line := range strings.Split(f.monText, "\n") {
			e.IngestMonitoringLine(line)
		}
		e.MonitoringDone()
		out, err := e.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteAll(&buf, out); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.ParseErrors != 0 || st.Truncated != 0 {
			t.Fatalf("clean input produced parse errors: %+v", st)
		}
		return buf.String()
	}

	// Binary, in awkward chunk sizes that split records.
	binText := render(func(e *stream.Engine) {
		data := bin.Bytes()
		for off := 0; off < len(data); off += 777 {
			end := off + 777
			if end > len(data) {
				end = len(data)
			}
			e.IngestChunk(data[off:end])
		}
	})
	// Text through the same chunk path, in one chunk per 64 KiB as a file
	// read would deliver it.
	textChunked := render(func(e *stream.Engine) {
		data := []byte(f.logText)
		for off := 0; off < len(data); off += 64 << 10 {
			e.IngestChunk(data[off:min(off+64<<10, len(data))])
		}
	})
	if binText != f.batchText {
		t.Fatalf("binary-ingested report differs from batch report\n--- batch ---\n%s\n--- binary ---\n%s",
			head(f.batchText, 40), head(binText, 40))
	}
	if textChunked != f.batchText {
		t.Fatal("text chunk-ingested report differs from batch report")
	}
}
