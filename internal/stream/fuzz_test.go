package stream_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/stream"
)

// Perturbation ops read from the fuzzed bytes, three bytes each: an op byte,
// then a big-endian event position.
const (
	opSwap = iota // swap the event with its successor
	opDup         // log the event twice
	opDrop        // lose the event
	numOps
)

// perturb applies up to 8 ops from ops to a copy of events.
func perturb(events []enginelog.Event, ops []byte) []enginelog.Event {
	out := append([]enginelog.Event(nil), events...)
	for k := 0; k+2 < len(ops) && k < 3*8 && len(out) > 1; k += 3 {
		i := (int(ops[k+1])<<8 | int(ops[k+2])) % len(out)
		switch ops[k] % numOps {
		case opSwap:
			if i+1 < len(out) {
				out[i], out[i+1] = out[i+1], out[i]
			}
		case opDup:
			out = slices.Insert(out, i, out[i])
		case opDrop:
			out = slices.Delete(out, i, i+1)
		}
	}
	return out
}

// FuzzStreamIngest perturbs the fixture's event log — adjacent swaps,
// duplicates, drops — and feeds it to both pipelines: the retain-mode stream
// engine through IngestEvent, and grade10.Characterize. The stream must never
// panic, and whenever the batch pipeline accepts the log the stream must
// finalize the byte-identical report with no invalid events and no forced
// closures: both build the phase tree by the same rules.
func FuzzStreamIngest(f *testing.F) {
	fx := getFixture(f)
	log, stats, _, err := enginelog.ReadStats(strings.NewReader(fx.logText))
	if err != nil || stats.Degraded() {
		f.Fatalf("decode: err=%v stats=%+v", err, stats)
	}
	// The barrier swap: a phase's last blocking interval logged after the
	// phase's end event. Batch accepts it; the stream once rejected it.
	for i := 0; i+1 < len(log.Events); i++ {
		a, b := log.Events[i], log.Events[i+1]
		if a.Kind == enginelog.Blocked && a.Resource == "barrier" && b.Kind == enginelog.PhaseEnd && b.Path == a.Path {
			f.Add([]byte{opSwap, byte(i >> 8), byte(i)})
			break
		}
	}
	f.Add([]byte{})
	f.Add([]byte{opDup, 0, 40, opDrop, 1, 7, opSwap, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		events := perturb(log.Events, ops)
		e, err := stream.New(stream.Config{
			Models: fx.models, RetainForFinal: true, WindowSlices: 16, MaxWindows: 4,
			ExpectedInstances: len(fx.monitoring),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Monitoring first, so windows flush while the log streams in.
		for _, line := range strings.Split(fx.monText, "\n") {
			e.IngestMonitoringLine(line)
		}
		e.MonitoringDone()
		for _, ev := range events {
			e.IngestEvent(ev)
		}
		e.LogDone()
		out, ferr := e.Finalize()

		batch, berr := grade10.Characterize(grade10.Input{
			Log: &enginelog.Log{Events: events}, Monitoring: fx.monitoring, Models: fx.models,
		})
		if berr != nil {
			return
		}
		if ferr != nil {
			t.Fatalf("batch accepts the log, stream finalize fails: %v", ferr)
		}
		var want, got bytes.Buffer
		if err := report.WriteAll(&want, batch); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteAll(&got, out); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("streamed report differs from batch report\n--- batch ---\n%s\n--- stream ---\n%s",
				head(want.String(), 40), head(got.String(), 40))
		}
		if st := e.Stats(); st.InvalidEvents != 0 || st.ForcedClosures != 0 {
			t.Fatalf("batch accepts the log, stream counted %d invalid events and %d forced closures",
				st.InvalidEvents, st.ForcedClosures)
		}
	})
}

// FuzzFollowComplete delivers a SaveOpts-written run, text or binary, to
// Follow's sink the way the tail would, minus its clock: run.json first, then
// the log and the monitoring in the order SaveOpts writes them, cut into
// pieces whose sizes come from the fuzzed bytes, with the last monitoring
// byte always delivered on its own. After every piece and every monitoring
// line the sink's completeness check must stay false until that last byte
// has arrived, and hold then; the run then finalizes to the report of
// rundir.Load plus grade10.Characterize.
func FuzzFollowComplete(f *testing.F) {
	fx := getFixture(f)
	type input struct {
		info      rundir.Info
		log, mon  []byte
		wantBatch string
	}
	var inputs [2]input
	for i, binary := range []bool{false, true} {
		dir := saveRun(f, fx, binary, nil)
		run, err := rundir.Load(dir)
		if err != nil {
			f.Fatal(err)
		}
		batch, err := grade10.Characterize(grade10.Input{Log: run.Log, Monitoring: run.Monitoring, Models: fx.models})
		if err != nil {
			f.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.WriteAll(&want, batch); err != nil {
			f.Fatal(err)
		}
		in := input{info: run.Info, wantBatch: want.String()}
		if in.log, err = os.ReadFile(filepath.Join(dir, "execution.log")); err != nil {
			f.Fatal(err)
		}
		if in.mon, err = os.ReadFile(filepath.Join(dir, "monitoring.csv")); err != nil {
			f.Fatal(err)
		}
		inputs[i] = in
	}
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	f.Add(false, []byte{0, 1, 40, 200, 3, 250})
	f.Add(true, []byte{1, 1, 7, 128, 254, 254, 254})
	f.Fuzz(func(t *testing.T, binary bool, cuts []byte) {
		in := inputs[0]
		if binary {
			in = inputs[1]
		}
		sink, engine := stream.FollowSinkFor(retainFor(fx))
		var lines enginelog.LineSplitter
		logRest, monRest := in.log, in.mon
		// Besides after every piece, the check runs after every monitoring
		// line, so monitoring that is whole for some instances only is seen.
		monLines := 0
		monLine := func(line []byte) {
			sink.MonitoringLine(string(line))
			if monLines += len(line); monLines < len(in.mon) && sink.Complete() {
				t.Fatalf("complete after %d of %d monitoring bytes", monLines, len(in.mon))
			}
		}
		// deliver hands the next n bytes of log-then-monitoring to the sink.
		deliver := func(n int) {
			k := min(n, len(logRest))
			if k > 0 {
				sink.LogChunk(logRest[:k])
				logRest = logRest[k:]
			}
			k = min(n-k, len(monRest))
			lines.Feed(monRest[:k], monLine)
			monRest = monRest[k:]
			if sink.Complete() && len(monRest) > 0 {
				t.Fatalf("complete with %d log and %d monitoring bytes undelivered", len(logRest), len(monRest))
			}
		}
		if err := sink.Info(in.info); err != nil {
			t.Fatal(err)
		}
		if sink.Complete() {
			t.Fatal("complete before any data")
		}
		// A cut of c bytes takes 1 + c³/255³ of the run: small values make
		// byte-sized pieces, large ones cross most of it.
		total := len(in.log) + len(in.mon)
		for _, c := range cuts {
			left := len(logRest) + len(monRest)
			if left <= 1 {
				break
			}
			deliver(min(1+int(c)*int(c)*int(c)*total/(255*255*255), left-1))
		}
		deliver(len(logRest) + len(monRest) - 1)
		deliver(1)
		if !sink.Complete() {
			t.Fatal("the whole run delivered, but not complete")
		}
		out, err := engine().Finalize()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := report.WriteAll(&got, out); err != nil {
			t.Fatal(err)
		}
		if got.String() != in.wantBatch {
			t.Fatalf("followed report differs from the batch report\n--- batch ---\n%s\n--- followed ---\n%s",
				head(in.wantBatch, 40), head(got.String(), 40))
		}
	})
}
