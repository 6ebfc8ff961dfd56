package issues

import (
	"reflect"
	"testing"

	"grade10/internal/bottleneck"
)

// TestAnalyzeParallelBitIdentical is the determinism guard for the candidate
// fan-out: the issue report (ordering, makespans, impacts) must be identical
// for every Parallelism value, because each candidate's replay is independent
// and the report is assembled in candidate order.
func TestAnalyzeParallelBitIdentical(t *testing.T) {
	tr := bspTrace(t, [][][]int64{
		{{40, 10}, {10, 10}},
		{{10, 25}, {10, 10}},
	})
	prof := profileFor(t, tr)
	btl := bottleneck.Detect(prof)
	serial := Analyze(prof, btl, Config{Parallelism: 1})
	if len(serial.Issues) == 0 {
		t.Fatal("fixture produced no issues; the guard would be vacuous")
	}
	for _, workers := range []int{2, 3, 8} {
		parallel := Analyze(prof, btl, Config{Parallelism: workers})
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("parallelism %d: report differs from serial\nserial:   %+v\nparallel: %+v",
				workers, serial.Issues, parallel.Issues)
		}
	}
}

// TestReplayPoolReuse exercises repeated pooled replays: each schedule
// recycles its scratch, so results must stay stable across reuse,
// interleaved replays of another schedule, and what-if replays in between.
func TestReplayPoolReuse(t *testing.T) {
	trA := bspTrace(t, [][][]int64{{{20, 40}, {30, 10}}})
	trB := bspTrace(t, [][][]int64{{{5}}, {{7}}})
	a, b := Compile(trA), Compile(trB)
	wantA := replay(t, trA, nil)
	wantB := replay(t, trB, nil)
	shrunk := Durations{{Leaf: 1, Dur: 0}}
	for i := 0; i < 10; i++ {
		if got := a.Replay(nil); got != wantA {
			t.Fatalf("iteration %d: trace A makespan %v, want %v", i, got, wantA)
		}
		if got := b.Replay(nil); got != wantB {
			t.Fatalf("iteration %d: trace B makespan %v, want %v", i, got, wantB)
		}
		a.Replay(shrunk)
	}
}
