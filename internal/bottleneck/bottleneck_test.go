package bottleneck

import (
	"slices"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

// fig2Profile reconstructs the attribution test's Figure 2 example and runs
// detection on it: the paper's §III-E narrative is asserted directly.
func fig2Profile(t *testing.T) (*core.ExecutionTrace, *attribution.Profile) {
	t.Helper()
	root := core.NewRootType("job")
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		root.Child(name, false)
	}
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	emit := func(t0, t1 vtime.Time, path string) {
		now = t0
		l.StartPhase(path, -1)
		now = t1
		l.EndPhase(path)
	}
	now = at(0)
	l.StartPhase("/job", -1)
	emit(at(0), at(2), "/job/p1")
	emit(at(2), at(4), "/job/p2")
	emit(at(3), at(4), "/job/p3")
	emit(at(4), at(6), "/job/p4")
	now = at(6)
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	r1 := &core.Resource{Name: "r1", Kind: core.Consumable, Capacity: 100}
	r2 := &core.Resource{Name: "r2", Kind: core.Consumable, Capacity: 100}
	r3 := &core.Resource{Name: "r3", Kind: core.Consumable, Capacity: 100}
	samples := func(avgs ...float64) *metrics.SampleSeries {
		ss := &metrics.SampleSeries{}
		for i, a := range avgs {
			ss.Samples = append(ss.Samples, metrics.Sample{
				Start: at(int64(i * 2)), End: at(int64(i*2 + 2)), Avg: a,
			})
		}
		return ss
	}
	rt := core.NewResourceTrace()
	for _, x := range []struct {
		r  *core.Resource
		ss *metrics.SampleSeries
	}{{r1, samples(30, 60, 25)}, {r2, samples(0, 40, 0)}, {r3, samples(0, 90, 0)}} {
		if err := rt.Add(x.r, core.GlobalMachine, x.ss); err != nil {
			t.Fatal(err)
		}
	}
	rules := core.NewRuleSet()
	rules.Set("/job/p1", "r1", core.Variable(1)).
		Set("/job/p1", "r2", core.None()).
		Set("/job/p1", "r3", core.None()).
		Set("/job/p2", "r1", core.Variable(2)).
		Set("/job/p2", "r2", core.Variable(1)).
		Set("/job/p2", "r3", core.Exact(80)).
		Set("/job/p3", "r1", core.None()).
		Set("/job/p3", "r2", core.Exact(50)).
		Set("/job/p3", "r3", core.Variable(1)).
		Set("/job/p4", "r1", core.Exact(30)).
		Set("/job/p4", "r2", core.None()).
		Set("/job/p4", "r3", core.None())
	slices := core.NewTimeslices(at(0), at(6), sec)
	prof, err := attribution.Attribute(tr, rt, rules, slices)
	if err != nil {
		t.Fatal(err)
	}
	return tr, prof
}

func find(rep *Report, path, resource string, kind Kind) *PhaseBottleneck {
	for i := range rep.Bottlenecks {
		if b := &rep.Bottlenecks[i]; b.Phase.Path == path && b.Resource == resource && b.Kind == kind {
			return b
		}
	}
	return nil
}

func TestFigure2SaturationBottleneck(t *testing.T) {
	_, prof := fig2Profile(t)
	rep := Detect(prof)
	// R3 hits 100% in slice 3; both P2 and P3 are consuming it then, so both
	// are saturation-bottlenecked (the paper's example verbatim).
	sat := rep.Saturated["r3@global"]
	if len(sat) != 1 || sat[0] != 3 {
		t.Fatalf("saturated slices = %v", sat)
	}
	// R2 peaks at 65%: below SaturationThreshold, never saturated.
	if sat := rep.Saturated["r2@global"]; len(sat) != 0 {
		t.Fatalf("r2 saturated in slices %v", sat)
	}
	for _, path := range []string{"/job/p2", "/job/p3"} {
		b := find(rep, path, "r3", Saturation)
		if b == nil {
			t.Fatalf("%s not saturation-bottlenecked on r3", path)
		}
		if len(b.Slices) != 1 || b.Slices[0] != 3 {
			t.Fatalf("%s slices = %v", path, b.Slices)
		}
		if b.Time != vtime.Duration(sec) {
			t.Fatalf("%s time = %v", path, b.Time)
		}
	}
}

func TestFigure2ExactLimitBottleneck(t *testing.T) {
	_, prof := fig2Profile(t)
	rep := Detect(prof)
	// Slice 2: P2 uses its full Exact 80 on R3 while R3 is at 80% only.
	b := find(rep, "/job/p2", "r3", ExactLimit)
	if b == nil {
		t.Fatal("P2 not exact-limit bottlenecked on r3")
	}
	if len(b.Slices) != 1 || b.Slices[0] != 2 {
		t.Fatalf("exact-limit slices = %v", b.Slices)
	}
	// P4 on R1 consumed 25 < tolerance·30: not pinned.
	if find(rep, "/job/p4", "r1", ExactLimit) != nil {
		t.Fatal("P4 wrongly pinned on r1")
	}
	// P3's Exact 50 on R2 is fully satisfied in slice 3 (50 attributed) while
	// R2 is at 65%: exact-limit.
	if find(rep, "/job/p3", "r2", ExactLimit) == nil {
		t.Fatal("P3 not exact-limit bottlenecked on r2")
	}
}

func TestBlockingBottleneck(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("a", false)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/a", -1)
	now = at(2)
	l.BlockedSince("/job/a", "gc", at(1))
	now = at(4)
	l.BlockedSince("/job/a", "queue", at(3))
	now = at(5)
	l.EndPhase("/job/a")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 4}
	rt := core.NewResourceTrace()
	if err := rt.Add(res, core.GlobalMachine, &metrics.SampleSeries{Samples: []metrics.Sample{
		{Start: at(0), End: at(5), Avg: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(),
		core.NewTimeslices(at(0), at(5), sec))
	if err != nil {
		t.Fatal(err)
	}
	rep := Detect(prof)
	gc := find(rep, "/job/a", "gc", Blocking)
	if gc == nil || gc.Time != vtime.Duration(sec) {
		t.Fatalf("gc bottleneck = %+v", gc)
	}
	q := find(rep, "/job/a", "queue", Blocking)
	if q == nil || q.Time != vtime.Duration(sec) {
		t.Fatalf("queue bottleneck = %+v", q)
	}
	// One phase's blocking bottlenecks are adjacent, by resource name.
	if len(rep.Bottlenecks) < 2 || gc != &rep.Bottlenecks[0] || q != &rep.Bottlenecks[1] {
		t.Fatalf("bottlenecks %+v: want gc then queue first", rep.Bottlenecks)
	}
}

func TestNoFalseBottlenecksWhenIdle(t *testing.T) {
	_, prof := fig2Profile(t)
	rep := Detect(prof)
	// P1 only uses R1 at 30% of a 100-capacity resource: no bottleneck of
	// any kind.
	for _, b := range rep.Bottlenecks {
		if b.Phase.Path == "/job/p1" {
			t.Fatalf("spurious bottleneck %+v", b)
		}
	}
}

func TestKindString(t *testing.T) {
	if Blocking.String() != "blocking" || Saturation.String() != "saturation" ||
		ExactLimit.String() != "exact-limit" || Kind(99).String() != "unknown" {
		t.Fatal("kind strings wrong")
	}
}

// stallTrace builds a finished /job trace with one phase per entry of
// stalls, each phase stalled on the listed resources for [1s, 2s) and the
// phase spanning [0s, 3s).
func stallTrace(t *testing.T, stalls map[string][]string) *core.ExecutionTrace {
	t.Helper()
	root := core.NewRootType("job")
	for name := range stalls {
		root.Child(name, false)
	}
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	for name, resources := range stalls {
		now = at(0)
		l.StartPhase("/job/"+name, -1)
		now = at(2)
		for _, res := range resources {
			l.BlockedSince("/job/"+name, res, at(1))
		}
		now = at(3)
		l.EndPhase("/job/" + name)
	}
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRowsTiedOrder checks three rows tied on time come out in one order,
// by type path then resource, on every call.
func TestRowsTiedOrder(t *testing.T) {
	tr := stallTrace(t, map[string][]string{"b": {"gc"}, "a": {"queue", "gc"}})
	prof := &attribution.Profile{Trace: tr, Slices: core.NewTimeslices(tr.Start, tr.End, sec)}
	want := []string{"/job/a gc", "/job/a queue", "/job/b gc"}
	for i := 0; i < 50; i++ {
		var got []string
		for _, r := range Detect(prof).Rows {
			if r.Time != vtime.Duration(sec) || r.Phases != 1 {
				t.Fatalf("row %+v, want one phase for 1s", r)
			}
			got = append(got, r.TypePath+" "+r.Resource)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: rows %v, want %v", i, got, want)
		}
	}
}

// TestZeroLengthStallNoBottleneck checks a zero-length stall, which both
// log parsers accept, yields no bottleneck and no row over the whole run or
// over a window holding it.
func TestZeroLengthStallNoBottleneck(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("a", false)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	// Written as parsed events: enginelog.Logger never logs a zero-length
	// stall.
	tr, err := core.BuildExecutionTrace(&enginelog.Log{Events: []enginelog.Event{
		{Kind: enginelog.PhaseStart, Time: at(0), Path: "/job", Machine: -1},
		{Kind: enginelog.PhaseStart, Time: at(0), Path: "/job/a", Machine: -1},
		{Kind: enginelog.Blocked, Time: at(2), End: at(2), Path: "/job/a", Resource: "gc"},
		{Kind: enginelog.PhaseEnd, Time: at(4), Path: "/job/a"},
		{Kind: enginelog.PhaseEnd, Time: at(4), Path: "/job"},
	}}, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range []core.Timeslices{
		core.NewTimeslices(tr.Start, tr.End, sec),
		core.NewTimeslices(at(1), at(3), sec),
		core.NewTimeslices(at(2), at(3), sec),
	} {
		rep := Detect(&attribution.Profile{Trace: tr, Slices: win})
		if len(rep.Bottlenecks) != 0 || len(rep.Rows) != 0 {
			t.Fatalf("window [%v, %v): bottlenecks %+v, rows %+v", win.Start, win.End, rep.Bottlenecks, rep.Rows)
		}
	}
}
