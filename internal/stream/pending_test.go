package stream_test

import (
	"fmt"
	"math/rand"
	"testing"

	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

// TestWindowLeavesSorted checks the order a flush hands leaves to
// attribution, which the engine keeps as leaves close rather than sorting
// per flush: for leaves closed in shuffled order, with tied starts and
// some left open, the leaves of a window equal core.SortPhases of the
// closed leaves overlapping it plus the open leaves started before its end.
func TestWindowLeavesSorted(t *testing.T) {
	root := core.NewRootType("app")
	root.Child("work", true)
	exec, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewResourceModel(&core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	const ms = vtime.Millisecond
	w0, w1 := vtime.Time(4*ms), vtime.Time(12*ms)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// No monitoring arrives, so nothing flushes while the test feeds it.
		e, err := stream.New(stream.Config{
			Models:    grade10.Models{Exec: exec, Res: res, Rules: core.NewRuleSet()},
			Timeslice: ms, WindowSlices: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: 0, Path: "/app", Machine: 0})
		const n = 40
		starts := make([]vtime.Time, n)
		for i := range starts {
			starts[i] = vtime.Time(rng.Intn(16)) * vtime.Time(ms) // ties, ordered by path
			e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: starts[i],
				Path: fmt.Sprintf("/app/work.%d", i), Machine: -1})
		}
		var want []*core.Phase
		for _, i := range rng.Perm(n) {
			ph := &core.Phase{Path: fmt.Sprintf("/app/work.%d", i), Start: starts[i]}
			if rng.Intn(4) > 0 { // close it
				end := starts[i] + vtime.Time(rng.Intn(8))*vtime.Time(ms)
				e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseEnd, Time: end, Path: ph.Path})
				if end <= w0 {
					continue
				}
			}
			if ph.Start < w1 {
				want = append(want, ph)
			}
		}
		core.SortPhases(want)

		got := e.WindowLeaves(w0, w1)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d leaves, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Path != want[i].Path {
				t.Fatalf("seed %d: leaf %d is %s (start %v), want %s (start %v)",
					seed, i, got[i].Path, got[i].Start, want[i].Path, want[i].Start)
			}
		}
	}
}
