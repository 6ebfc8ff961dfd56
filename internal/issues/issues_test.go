package issues

import (
	"math"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

func bspModel(t *testing.T) *core.ExecutionModel {
	t.Helper()
	root := core.NewRootType("app")
	root.Child("load", false)
	exec := root.Child("execute", false, "load")
	ss := exec.Child("superstep", true)
	ss.Sequential = true
	worker := ss.Child("worker", true)
	worker.Child("thread", true)
	root.Child("write", false, "execute")
	m, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bspTrace builds a two-superstep trace. threadDurs[superstep][worker][thread]
// gives thread durations in seconds.
func bspTrace(t *testing.T, threadDurs [][][]int64) *core.ExecutionTrace {
	t.Helper()
	m := bspModel(t)
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })

	now = at(0)
	l.StartPhase("/app", -1)
	l.StartPhase("/app/load", -1)
	now = at(10)
	l.EndPhase("/app/load")
	l.StartPhase("/app/execute", -1)
	cursor := int64(10)
	for s, workers := range threadDurs {
		ssPath := enginelog.JoinIndexed("/app/execute", "superstep", s)
		ssStart := cursor
		now = at(ssStart)
		l.StartPhase(ssPath, -1)
		ssEnd := ssStart
		for w, threads := range workers {
			wPath := enginelog.JoinIndexed(ssPath, "worker", w)
			now = at(ssStart)
			l.StartPhase(wPath, w)
			wEnd := ssStart
			for th, d := range threads {
				tPath := enginelog.JoinIndexed(wPath, "thread", th)
				now = at(ssStart)
				l.StartPhase(tPath, -1)
				now = at(ssStart + d)
				l.EndPhase(tPath)
				if ssStart+d > wEnd {
					wEnd = ssStart + d
				}
			}
			now = at(wEnd)
			l.EndPhase(wPath)
			if wEnd > ssEnd {
				ssEnd = wEnd
			}
		}
		now = at(ssEnd)
		l.EndPhase(ssPath)
		cursor = ssEnd
	}
	now = at(cursor)
	l.EndPhase("/app/execute")
	l.StartPhase("/app/write", -1)
	now = at(cursor + 5)
	l.EndPhase("/app/write")
	l.EndPhase("/app")

	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReplayMatchesCriticalPath(t *testing.T) {
	// Superstep 0: slowest thread 40s; superstep 1: slowest 20s.
	tr := bspTrace(t, [][][]int64{
		{{20, 40}, {30, 10}},
		{{20, 5}, {15, 10}},
	})
	// load 10 + ss0 40 + ss1 20 + write 5 = 75.
	if got := replay(t, tr, nil); got != 75*sec {
		t.Fatalf("makespan %v, want 75s", got)
	}
}

func TestReplaySequentialSuperstepsEnforced(t *testing.T) {
	tr := bspTrace(t, [][][]int64{
		{{10}},
		{{10}},
	})
	// Shrinking superstep 0's thread shortens the whole run: supersteps are
	// serialized.
	leaf := tr.ByPath["/app/execute/superstep.0/worker.0/thread.0"]
	durs := phaseDurs{leaf: 2 * sec}
	if got := replay(t, tr, durs); got != (10+2+10+5)*sec {
		t.Fatalf("makespan %v", got)
	}
}

func TestReplayConcurrentWorkers(t *testing.T) {
	// Workers run concurrently: shrinking the non-critical worker changes
	// nothing.
	tr := bspTrace(t, [][][]int64{
		{{40}, {10}},
	})
	fast := tr.ByPath["/app/execute/superstep.0/worker.1/thread.0"]
	if got := replay(t, tr, phaseDurs{fast: 1 * sec}); got != (10+40+5)*sec {
		t.Fatalf("makespan %v", got)
	}
	slow := tr.ByPath["/app/execute/superstep.0/worker.0/thread.0"]
	if got := replay(t, tr, phaseDurs{slow: 15 * sec}); got != (10+15+5)*sec {
		t.Fatalf("makespan %v", got)
	}
}

func TestReplayNegativeDurationClamped(t *testing.T) {
	tr := bspTrace(t, [][][]int64{{{10}}})
	leaf := tr.ByPath["/app/execute/superstep.0/worker.0/thread.0"]
	if got := replay(t, tr, phaseDurs{leaf: -5 * sec}); got != (10+0+5)*sec {
		t.Fatalf("makespan %v", got)
	}
}

func TestGroupsByNearestSequentialAncestor(t *testing.T) {
	tr := bspTrace(t, [][][]int64{
		{{20, 40}, {30, 10}},
		{{20, 5}, {15, 10}},
	})
	groups := Groups(tr)
	// Thread groups: one per superstep (threads across workers merge);
	// plus load and write singleton groups (root-anchored).
	var threadGroups []Group
	for _, g := range groups {
		if g.TypePath == "/app/execute/superstep/worker/thread" {
			threadGroups = append(threadGroups, g)
		}
	}
	if len(threadGroups) != 2 {
		t.Fatalf("%d thread groups", len(threadGroups))
	}
	for _, g := range threadGroups {
		if len(g.Members) != 4 {
			t.Fatalf("group of %s has %d members", g.Members[0].Path, len(g.Members))
		}
	}
	var total vtime.Duration
	for _, m := range threadGroups[0].Members {
		total += m.Duration()
	}
	if total != 100*sec || threadGroups[0].MaxDuration() != 40*sec {
		t.Fatalf("group stats: total %v max %v", total, threadGroups[0].MaxDuration())
	}
}

// profileFor builds a minimal attribution profile (one global cpu resource,
// constant monitoring) so Analyze can run end to end.
func profileFor(t *testing.T, tr *core.ExecutionTrace) *attribution.Profile {
	t.Helper()
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 100}
	rt := core.NewResourceTrace()
	end := tr.End
	if err := rt.Add(res, core.GlobalMachine, &metrics.SampleSeries{Samples: []metrics.Sample{
		{Start: tr.Start, End: end, Avg: 10},
	}}); err != nil {
		t.Fatal(err)
	}
	slices := core.NewTimeslices(tr.Start, tr.End, sec)
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(), slices)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestAnalyzeImbalance(t *testing.T) {
	// Heavy imbalance in superstep 0: durations 40,10,10,10 → mean 17.5.
	tr := bspTrace(t, [][][]int64{
		{{40, 10}, {10, 10}},
		{{10, 10}, {10, 10}},
	})
	prof := profileFor(t, tr)
	btl := bottleneck.Detect(prof)
	rep := Analyze(prof, btl, Config{})
	// Original: 10 + 40 + 10 + 5 = 65. Balanced: 10 + 17.5 + 10 + 5 = 42.5.
	var imb *Issue
	for i := range rep.Issues {
		if rep.Issues[i].Kind == ImbalanceImpact &&
			rep.Issues[i].PhaseType == "/app/execute/superstep/worker/thread" {
			imb = &rep.Issues[i]
		}
	}
	if imb == nil {
		t.Fatalf("no thread imbalance issue; issues = %+v", rep.Issues)
	}
	wantImpact := 1 - 42.5/65.0
	if math.Abs(imb.Impact-wantImpact) > 1e-9 {
		t.Fatalf("impact %v, want %v", imb.Impact, wantImpact)
	}
}

func TestAnalyzeBlockingBottleneckRemoval(t *testing.T) {
	// One thread blocked on gc for 20 of its 40 seconds: removing gc
	// bottlenecks should shorten the makespan by 20s.
	m := bspModel(t)
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = at(0)
	l.StartPhase("/app", -1)
	l.StartPhase("/app/execute", -1)
	l.StartPhase("/app/execute/superstep.0", -1)
	l.StartPhase("/app/execute/superstep.0/worker.0", 0)
	l.StartPhase("/app/execute/superstep.0/worker.0/thread.0", -1)
	now = at(30)
	l.BlockedSince("/app/execute/superstep.0/worker.0/thread.0", "gc", at(10))
	now = at(40)
	l.EndPhase("/app/execute/superstep.0/worker.0/thread.0")
	l.EndPhase("/app/execute/superstep.0/worker.0")
	l.EndPhase("/app/execute/superstep.0")
	l.EndPhase("/app/execute")
	l.EndPhase("/app")
	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	prof := profileFor(t, tr)
	btl := bottleneck.Detect(prof)
	rep := Analyze(prof, btl, Config{})
	var gc *Issue
	for i := range rep.Issues {
		if rep.Issues[i].Kind == BottleneckImpact && rep.Issues[i].Resource == "gc" {
			gc = &rep.Issues[i]
		}
	}
	if gc == nil {
		t.Fatalf("no gc issue; issues = %+v", rep.Issues)
	}
	if gc.Original != 40*sec || gc.Optimistic != 20*sec {
		t.Fatalf("gc issue %v → %v", gc.Original, gc.Optimistic)
	}
	if math.Abs(gc.Impact-0.5) > 1e-9 {
		t.Fatalf("impact %v", gc.Impact)
	}
	if gc.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestDetectOutliers(t *testing.T) {
	// Worker 0 has one thread at 48s vs siblings ~16s: an outlier with
	// ratio 3; the step's clean maximum is 20s → slowdown 2.4.
	tr := bspTrace(t, [][][]int64{
		{{48, 16, 16}, {20, 18, 19}},
	})
	outs := DetectOutliers(tr, Config{MinOutlierGroupDuration: sec})
	if len(outs) != 1 {
		t.Fatalf("%d outliers: %+v", len(outs), outs)
	}
	o := outs[0]
	if o.Phase.Path != "/app/execute/superstep.0/worker.0/thread.0" {
		t.Fatalf("outlier %s", o.Phase.Path)
	}
	if math.Abs(o.Ratio-3.0) > 1e-9 {
		t.Fatalf("ratio %v", o.Ratio)
	}
	if math.Abs(o.StepSlowdown-48.0/20.0) > 1e-9 {
		t.Fatalf("slowdown %v", o.StepSlowdown)
	}
}

func TestDetectOutliersIgnoresTrivialGroups(t *testing.T) {
	// All durations below the 1s threshold are ignored even with a huge
	// ratio — but bspTrace uses whole seconds, so use a high threshold
	// instead.
	tr := bspTrace(t, [][][]int64{
		{{48, 16, 16}},
	})
	outs := DetectOutliers(tr, Config{MinOutlierGroupDuration: 100 * sec})
	if len(outs) != 0 {
		t.Fatalf("outliers in trivial group: %+v", outs)
	}
}

func TestDetectOutliersBalancedGroupClean(t *testing.T) {
	tr := bspTrace(t, [][][]int64{
		{{20, 21, 19}, {22, 20, 18}},
	})
	if outs := DetectOutliers(tr, Config{}); len(outs) != 0 {
		t.Fatalf("false outliers: %+v", outs)
	}
}

func TestIssueKindString(t *testing.T) {
	if BottleneckImpact.String() != "bottleneck" || ImbalanceImpact.String() != "imbalance" {
		t.Fatal("kind strings wrong")
	}
}
