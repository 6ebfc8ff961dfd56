package stream_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/report"
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
